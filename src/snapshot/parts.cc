#include "snapshot/parts.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/digest.h"

namespace pabr::snapshot {
namespace {

// ---- Config pieces shared by both engines ---------------------------------

template <class Ar>
void io(Ar& ar, admission::NsConfig& c) {
  ar.f64(c.estimation_interval_s);
  ar.f64(c.overload_target);
  ar.f64(c.mean_sojourn_s);
  ar.f64(c.mean_lifetime_s);
}

template <class Ar>
void io(Ar& ar, hoef::EstimatorConfig& c) {
  ar.f64(c.t_int);
  ar.f64(c.period);
  ar.u32(c.n_win_periods);
  items(ar, c.weights, 8, [&](double& w) { ar.f64(w); });
  ar.u32(c.n_quad);
  ar.f64(c.snapshot_tolerance);
}

template <class Ar>
void io(Ar& ar, telemetry::TelemetryConfig& c) {
  ar.b(c.enabled);
  ar.b(c.trace);
  ar.u64(c.trace_capacity);
  ar.u32(c.trace_sample_every);
  ar.b(c.time_admissions);
}

template <class Ar>
void io(Ar& ar, fault::FaultConfig& c) {
  ar.b(c.enabled);
  ar.u64(c.seed);
  ar.f64(c.link_mtbf_s);
  ar.f64(c.link_mttr_s);
  ar.f64(c.message_loss);
  ar.f64(c.message_delay);
  ar.f64(c.station_mtbf_s);
  ar.f64(c.station_mttr_s);
  ar.f64(c.timeout_s);
  ar.u32(c.max_retries);
  ar.f64(c.backoff_base_s);
  ar.f64(c.backoff_max_s);
  ar.f64(c.degraded_floor_bu);
  items(ar, c.outages, 36, [&](fault::ScriptedOutage& o) {
    ar.enumeration(o.kind, fault::ScriptedOutage::Kind::kStation);
    ar.i64(o.a);
    ar.i64(o.b);
    ar.f64(o.from);
    ar.f64(o.until);
  });
}

template <class Ar>
void io(Ar& ar, std::optional<traffic::DailyProfile>& p) {
  bool present = p.has_value();
  ar.b(present);
  if constexpr (Ar::kDecoding) p.reset();
  if (!present) return;
  std::vector<std::pair<double, double>> knots;
  if constexpr (!Ar::kDecoding) knots = p->knots();
  items(ar, knots, 16, [&](std::pair<double, double>& k) {
    ar.f64(k.first);
    ar.f64(k.second);
  });
  if constexpr (Ar::kDecoding) p.emplace(std::move(knots));
}

// ---- Statistics pieces ----------------------------------------------------

template <class Ar>
void io(Ar& ar, sim::RatioEstimator& r) {
  std::uint64_t hits = r.hits();
  std::uint64_t trials = r.trials();
  ar.u64(hits);
  ar.u64(trials);
  if constexpr (Ar::kDecoding) r.restore(hits, trials);
}

template <class Ar>
void io(Ar& ar, sim::TimeWeightedMean& m) {
  sim::TimeWeightedMean::State s = m.state();
  ar.f64(s.integral);
  ar.f64(s.current);
  ar.f64(s.last_time);
  ar.f64(s.start);
  ar.b(s.has_value);
  if constexpr (Ar::kDecoding) m.restore(s);
}

template <class Ar>
void io(Ar& ar, telemetry::HistogramSummary& h) {
  ar.str(h.name);
  ar.f64(h.lo);
  ar.f64(h.hi);
  ar.u64(h.count);
  ar.f64(h.sum);
  ar.f64(h.min);
  ar.f64(h.max);
  ar.f64(h.p50);
  ar.f64(h.p99);
  ar.u64(h.underflow);
  ar.u64(h.overflow);
  items(ar, h.buckets, 8, [&](std::uint64_t& b) { ar.u64(b); });
}

template <class Config>
std::uint64_t digest_of(const Config& c) {
  Encoder e;
  io(e, const_cast<Config&>(c));  // the Encoder only reads
  return util::fnv1a_bytes(e.bytes().data(), e.bytes().size());
}

}  // namespace

// ---- Configs -------------------------------------------------------------

template <class Ar>
void io(Ar& ar, core::SystemConfig& c) {
  ar.u32(c.num_cells);
  ar.f64(c.cell_diameter_km);
  ar.b(c.ring);
  ar.f64(c.capacity_bu);
  ar.f64(c.soft_capacity_margin);
  ar.b(c.adaptive_qos);
  ar.u32(c.video_min_bu);
  bool wired = c.wired.has_value();
  ar.b(wired);
  if constexpr (Ar::kDecoding) c.wired.reset();
  if (wired) {
    if constexpr (Ar::kDecoding) c.wired.emplace();
    ar.f64(c.wired->access_capacity_bu);
    ar.f64(c.wired->uplink_capacity_bu);
  }
  ar.f64(c.soft_handoff_zone_km);
  ar.enumeration(c.policy, admission::PolicyKind::kNsDca);
  ar.f64(c.static_g);
  io(ar, c.ns);
  ar.f64(c.phd_target);
  ar.f64(c.t_start);
  ar.enumeration(c.t_est_step, reservation::StepPolicy::kMultiplicative);
  io(ar, c.hoef);
  ar.f64(c.known_route_fraction);
  ar.f64(c.workload.arrival_rate_per_cell);
  ar.f64(c.workload.voice_ratio);
  ar.f64(c.workload.mean_lifetime_s);
  ar.f64(c.workload.speed_min_kmh);
  ar.f64(c.workload.speed_max_kmh);
  ar.b(c.workload.bidirectional);
  ar.b(c.retry.enabled);
  ar.f64(c.retry.wait_s);
  ar.f64(c.retry.giveup_step);
  io(ar, c.load_profile);
  io(ar, c.speed_profile);
  ar.f64(c.speed_half_range_kmh);
  ar.b(c.incremental_reservation);
  ar.enumeration(c.interconnect, backhaul::InterconnectKind::kFullyConnected);
  items(ar, c.traced_cells, 8, [&](geom::CellId& cell) { ar.i64(cell); });
  ar.u32(c.audit_every);
  io(ar, c.telemetry);
  io(ar, c.fault);
  ar.u64(c.seed);
  ar.f64(c.time_origin);  // appended in format version 2
}

template <class Ar>
void io(Ar& ar, core::HexSystemConfig& c) {
  ar.u32(c.rows);
  ar.u32(c.cols);
  ar.b(c.wrap);
  ar.f64(c.capacity_bu);
  ar.enumeration(c.policy, admission::PolicyKind::kNsDca);
  ar.f64(c.static_g);
  io(ar, c.ns);
  ar.f64(c.phd_target);
  ar.f64(c.t_start);
  io(ar, c.hoef);
  ar.f64(c.arrival_rate_per_cell);
  ar.f64(c.voice_ratio);
  ar.f64(c.mean_lifetime_s);
  ar.f64(c.speed_min_kmh);
  ar.f64(c.speed_max_kmh);
  ar.f64(c.motion.cell_diameter_km);
  ar.f64(c.motion.persistence);
  ar.f64(c.motion.jitter);
  ar.b(c.incremental_reservation);
  ar.u32(c.audit_every);
  io(ar, c.telemetry);
  io(ar, c.fault);
  ar.u64(c.seed);
}

std::uint64_t config_digest(const core::SystemConfig& c) {
  return digest_of(c);
}
std::uint64_t config_digest(const core::HexSystemConfig& c) {
  return digest_of(c);
}

// ---- Statistics accumulators --------------------------------------------

template <class Ar>
void io(Ar& ar, sim::Counter& c) {
  std::uint64_t n = c.count();
  ar.u64(n);
  if constexpr (Ar::kDecoding) c.restore(n);
}

template <class Ar>
void io(Ar& ar, core::CellMetrics& m) {
  io(ar, m.pcb);
  io(ar, m.phd);
  io(ar, m.br_mean);
  io(ar, m.bu_mean);
  io(ar, m.degrades);
  io(ar, m.upgrades);
  io(ar, m.overload);
  io(ar, m.soft_alloc);
  io(ar, m.soft_fallback);
}

template <class Ar>
void io(Ar& ar, sim::Series& s) {
  if constexpr (Ar::kDecoding) {
    PABR_CHECK(s.empty(), "series restore on a non-empty series");
  }
  const std::size_t n = ar.count(s.points().size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Series::Point p{};
    if constexpr (!Ar::kDecoding) p = s.points()[i];
    ar.f64(p.t);
    ar.f64(p.v);
    if constexpr (Ar::kDecoding) s.add(p.t, p.v);
  }
}

template <class Ar>
void io(Ar& ar, sim::Rng& rng) {
  std::string state;
  if constexpr (!Ar::kDecoding) state = rng.save_state();
  ar.str(state);
  if constexpr (Ar::kDecoding) rng.load_state(state);
}

// ---- Event calendar ------------------------------------------------------

template <class Ar>
void io(Ar& ar, sim::EventQueue::PendingInfo& p) {
  ar.f64(p.when);
  ar.u64(p.seq);
}

template <class Ar>
void io(Ar& ar, std::optional<sim::EventQueue::PendingInfo>& p) {
  bool present = p.has_value();
  ar.b(present);
  if constexpr (Ar::kDecoding) {
    p.reset();
    if (present) p.emplace();
  }
  if (present) io(ar, *p);
}

template <class Doc>
Calendar::Calendar(Doc& doc, sim::Simulator& s, int& events_since_audit)
    : sim_(s),
      now_(s.now()),
      executed_(s.events_executed()),
      next_seq_(s.queue_next_seq()),
      next_id_(s.queue_next_id()) {
  section(doc, "simulator", [&](auto& ar) {
    ar.f64(now_);
    ar.u64(executed_);
    ar.u64(next_seq_);
    ar.u64(next_id_);
    ar.u64(events_since_audit);
  });
}

void Calendar::replay() {
  std::sort(saved_.begin(), saved_.end(), [](const Saved& a, const Saved& b) {
    return a.pending.seq < b.pending.seq;
  });
  for (Saved& ev : saved_) ev.schedule(ev.pending.when);
  sim_.advance_queue_counters(std::max(next_seq_, sim_.queue_next_seq()),
                              std::max(next_id_, sim_.queue_next_id()));
  sim_.restore_clock(now_, executed_);
}

// ---- Radio / control-plane state ----------------------------------------

template <class Ar>
void io(Ar& ar, core::Cell& cell) {
  if constexpr (Ar::kDecoding) {
    PABR_CHECK(cell.connection_count() == 0,
               "cell restore on a non-empty cell");
  }
  const std::size_t n = ar.count(cell.connections().size(), 49);
  for (std::size_t i = 0; i < n; ++i) {
    traffic::ConnectionEntry e;
    if constexpr (!Ar::kDecoding) e = cell.connections()[i];
    ar.u64(e.id);
    ar.i64(e.bandwidth);
    ar.i64(e.view.reserve_bandwidth);
    ar.i64(e.view.prev_cell);
    ar.f64(e.view.entered_cell_at);
    ar.i64(e.view.direction);
    ar.b(e.view.route_known);
    if constexpr (Ar::kDecoding) cell.attach(e.id, e.bandwidth, e.view);
  }
}

template <class Ar>
void io(Ar& ar, core::BaseStation& bs) {
  bs.estimator().io(ar);
  reservation::TestWindowController::State w = bs.window().state();
  ar.u64(w.w_obs);
  ar.u64(w.n_h);
  ar.u64(w.n_hd);
  ar.f64(w.t_est);
  ar.i64(w.last_direction);
  ar.i64(w.streak);
  double br = bs.current_reservation();
  ar.f64(br);
  if constexpr (Ar::kDecoding) {
    bs.window().restore(w);
    bs.set_current_reservation(br);
  }
}

// ---- Traffic entities ----------------------------------------------------

template <class Ar>
void io(Ar& ar, traffic::ConnectionRequest& r) {
  ar.u64(r.id);
  ar.i64(r.cell);
  ar.f64(r.position_km);
  ar.i64(r.direction);
  ar.f64(r.speed_kmh);
  ar.enumeration(r.service, traffic::ServiceClass::kVideo);
  ar.f64(r.lifetime_s);
  ar.f64(r.requested_at);
  ar.i64(r.attempt);
}

template <class Ar>
void io(Ar& ar, mobility::Mobile& m) {
  ar.u64(m.id);
  ar.enumeration(m.service, traffic::ServiceClass::kVideo);
  ar.i64(m.cell);
  ar.i64(m.prev_cell);
  ar.f64(m.entered_cell_at);
  ar.f64(m.position_km);
  ar.f64(m.position_at);
  ar.i64(m.direction);
  ar.f64(m.speed_kmh);
  ar.f64(m.admitted_at);
  ar.f64(m.expires_at);
  ar.b(m.route_known);
  ar.i64(m.current_bandwidth);
}

// ---- Backhaul ------------------------------------------------------------

template <class Ar>
void io(Ar& ar, backhaul::SignalingAccountant& a) {
  if constexpr (!Ar::kDecoding) {
    PABR_CHECK(!a.admission_open(),
               "snapshot inside an open admission bracket");
  }
  double sum = a.per_admission_sum();
  std::uint64_t admissions = a.admissions_observed();
  std::uint64_t total = a.total_br_calculations();
  ar.f64(sum);
  ar.u64(admissions);
  ar.u64(total);
  if constexpr (Ar::kDecoding) a.restore(sum, admissions, total);
}

template <class Ar>
void io(Ar& ar, backhaul::InterconnectModel& ic) {
  constexpr auto kCount =
      static_cast<std::size_t>(backhaul::MessageType::kCount);
  std::array<std::uint64_t, kCount> by_type{};
  for (std::size_t t = 0; t < kCount; ++t) {
    by_type[t] = ic.messages(static_cast<backhaul::MessageType>(t));
  }
  std::uint64_t total_hops = ic.total_hops();
  for (std::uint64_t& n : by_type) ar.u64(n);
  ar.u64(total_hops);
  if constexpr (Ar::kDecoding) ic.restore(by_type, total_hops);
}

template <class Ar>
void io(Ar& ar, wired::Backbone& b, int num_cells) {
  for (geom::CellId c = 0; c < num_cells; ++c) {
    const auto& attached = b.access(c).attachments();
    auto it = attached.begin();
    const std::size_t n = ar.count(attached.size(), 16);
    for (std::size_t i = 0; i < n; ++i) {
      traffic::ConnectionId id = 0;
      traffic::Bandwidth bw = 0;
      if constexpr (!Ar::kDecoding) std::tie(id, bw) = *it++;
      ar.u64(id);
      ar.i64(bw);
      if constexpr (Ar::kDecoding) b.admit(c, id, bw);
    }
    double br = b.reservation(c);
    ar.f64(br);
    if constexpr (Ar::kDecoding) b.set_reservation(c, br);
  }
}

// ---- Reservation engine --------------------------------------------------

template <class Ar>
void io(Ar& ar, reservation::IncrementalEngine& eng) {
  std::vector<std::uint64_t> stale;
  if constexpr (!Ar::kDecoding) stale = eng.stale_keys();
  items(ar, stale, 8, [&](std::uint64_t& key) { ar.u64(key); });
  std::uint64_t invalidated = eng.pairs_invalidated();
  std::uint64_t recomputed = eng.terms_recomputed();
  std::uint64_t reused = eng.terms_reused();
  ar.u64(invalidated);
  ar.u64(recomputed);
  ar.u64(reused);
  if constexpr (Ar::kDecoding) {
    eng.restore(std::move(stale), invalidated, recomputed, reused);
  }
}

// ---- Telemetry -----------------------------------------------------------

template <class Ar>
void io(Ar& ar, Counters& counters) {
  items(ar, counters, 12, [&](std::pair<std::string, std::uint64_t>& c) {
    ar.str(c.first);
    ar.u64(c.second);
  });
}

template <class Ar>
void io(Ar& ar, telemetry::MetricsSnapshot& s) {
  io(ar, s.counters);
  items(ar, s.gauges, 12, [&](std::pair<std::string, double>& g) {
    ar.str(g.first);
    ar.f64(g.second);
  });
  items(ar, s.histograms, 88,
        [&](telemetry::HistogramSummary& h) { io(ar, h); });
}

template <class Ar>
void io(Ar& ar, telemetry::TraceBuffer& b) {
  std::vector<telemetry::TraceRecord> records;
  if constexpr (!Ar::kDecoding) records = b.records();
  items(ar, records, 40, [&](telemetry::TraceRecord& r) {
    ar.f64(r.t);
    ar.i64(r.cell);
    ar.u32(r.kind);
    ar.u32(r.stream);
    ar.u64(r.mobile);
    ar.f64(r.payload);
  });
  std::uint64_t emitted = b.emitted();
  std::uint64_t sampled_out = b.sampled_out();
  std::uint64_t rotated_out = b.rotated_out();
  std::uint64_t sample_seq = b.sample_seq();
  ar.u64(emitted);
  ar.u64(sampled_out);
  ar.u64(rotated_out);
  ar.u64(sample_seq);
  if constexpr (Ar::kDecoding) {
    b.restore(records, emitted, sampled_out, rotated_out, sample_seq);
  }
}

// ---- Instantiations for both archives -------------------------------------

#define PABR_SNAPSHOT_IO(T)                 \
  template void io(Encoder&, T&);           \
  template void io(Decoder&, T&);
PABR_SNAPSHOT_IO(core::SystemConfig)
PABR_SNAPSHOT_IO(core::HexSystemConfig)
PABR_SNAPSHOT_IO(sim::Counter)
PABR_SNAPSHOT_IO(core::CellMetrics)
PABR_SNAPSHOT_IO(sim::Series)
PABR_SNAPSHOT_IO(sim::Rng)
PABR_SNAPSHOT_IO(sim::EventQueue::PendingInfo)
PABR_SNAPSHOT_IO(std::optional<sim::EventQueue::PendingInfo>)
PABR_SNAPSHOT_IO(core::Cell)
PABR_SNAPSHOT_IO(core::BaseStation)
PABR_SNAPSHOT_IO(traffic::ConnectionRequest)
PABR_SNAPSHOT_IO(mobility::Mobile)
PABR_SNAPSHOT_IO(backhaul::SignalingAccountant)
PABR_SNAPSHOT_IO(backhaul::InterconnectModel)
PABR_SNAPSHOT_IO(reservation::IncrementalEngine)
PABR_SNAPSHOT_IO(Counters)
PABR_SNAPSHOT_IO(telemetry::MetricsSnapshot)
PABR_SNAPSHOT_IO(telemetry::TraceBuffer)
#undef PABR_SNAPSHOT_IO
template void io(Encoder&, wired::Backbone&, int);
template void io(Decoder&, wired::Backbone&, int);
template Calendar::Calendar(Writer&, sim::Simulator&, int&);
template Calendar::Calendar(const Reader&, sim::Simulator&, int&);

}  // namespace pabr::snapshot
