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

// ---- Small shared pieces -------------------------------------------------

void put_cell_id(Encoder& e, geom::CellId c) {
  e.i64(static_cast<std::int64_t>(c));
}
geom::CellId get_cell_id(Decoder& d) {
  return static_cast<geom::CellId>(d.i64());
}

void put_ratio(Encoder& e, const sim::RatioEstimator& r) {
  e.u64(r.hits());
  e.u64(r.trials());
}
void restore_ratio(Decoder& d, sim::RatioEstimator& r) {
  const std::uint64_t hits = d.u64();
  const std::uint64_t trials = d.u64();
  r.restore(hits, trials);
}

void put_ns(Encoder& e, const admission::NsConfig& c) {
  e.f64(c.estimation_interval_s);
  e.f64(c.overload_target);
  e.f64(c.mean_sojourn_s);
  e.f64(c.mean_lifetime_s);
}
admission::NsConfig get_ns(Decoder& d) {
  admission::NsConfig c;
  c.estimation_interval_s = d.f64();
  c.overload_target = d.f64();
  c.mean_sojourn_s = d.f64();
  c.mean_lifetime_s = d.f64();
  return c;
}

void put_hoef(Encoder& e, const hoef::EstimatorConfig& c) {
  e.f64(c.t_int);
  e.f64(c.period);
  e.u32(static_cast<std::uint32_t>(c.n_win_periods));
  e.u32(static_cast<std::uint32_t>(c.weights.size()));
  for (const double w : c.weights) e.f64(w);
  e.u32(static_cast<std::uint32_t>(c.n_quad));
  e.f64(c.snapshot_tolerance);
}
hoef::EstimatorConfig get_hoef(Decoder& d) {
  hoef::EstimatorConfig c;
  c.t_int = d.f64();
  c.period = d.f64();
  c.n_win_periods = static_cast<int>(d.u32());
  c.weights.clear();
  const std::uint32_t n = d.u32();
  c.weights.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) c.weights.push_back(d.f64());
  c.n_quad = static_cast<int>(d.u32());
  c.snapshot_tolerance = d.f64();
  return c;
}

void put_telemetry_config(Encoder& e, const telemetry::TelemetryConfig& c) {
  e.b(c.enabled);
  e.b(c.trace);
  e.u64(static_cast<std::uint64_t>(c.trace_capacity));
  e.u32(c.trace_sample_every);
  e.b(c.time_admissions);
}
telemetry::TelemetryConfig get_telemetry_config(Decoder& d) {
  telemetry::TelemetryConfig c;
  c.enabled = d.b();
  c.trace = d.b();
  c.trace_capacity = static_cast<std::size_t>(d.u64());
  c.trace_sample_every = d.u32();
  c.time_admissions = d.b();
  return c;
}

void put_fault_config(Encoder& e, const fault::FaultConfig& c) {
  e.b(c.enabled);
  e.u64(c.seed);
  e.f64(c.link_mtbf_s);
  e.f64(c.link_mttr_s);
  e.f64(c.message_loss);
  e.f64(c.message_delay);
  e.f64(c.station_mtbf_s);
  e.f64(c.station_mttr_s);
  e.f64(c.timeout_s);
  e.u32(static_cast<std::uint32_t>(c.max_retries));
  e.f64(c.backoff_base_s);
  e.f64(c.backoff_max_s);
  e.f64(c.degraded_floor_bu);
  e.u32(static_cast<std::uint32_t>(c.outages.size()));
  for (const fault::ScriptedOutage& o : c.outages) {
    e.u32(static_cast<std::uint32_t>(o.kind));
    put_cell_id(e, o.a);
    put_cell_id(e, o.b);
    e.f64(o.from);
    e.f64(o.until);
  }
}
fault::FaultConfig get_fault_config(Decoder& d) {
  fault::FaultConfig c;
  c.enabled = d.b();
  c.seed = d.u64();
  c.link_mtbf_s = d.f64();
  c.link_mttr_s = d.f64();
  c.message_loss = d.f64();
  c.message_delay = d.f64();
  c.station_mtbf_s = d.f64();
  c.station_mttr_s = d.f64();
  c.timeout_s = d.f64();
  c.max_retries = static_cast<int>(d.u32());
  c.backoff_base_s = d.f64();
  c.backoff_max_s = d.f64();
  c.degraded_floor_bu = d.f64();
  const std::uint32_t n = d.u32();
  c.outages.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    fault::ScriptedOutage o;
    o.kind = static_cast<fault::ScriptedOutage::Kind>(d.u32());
    o.a = get_cell_id(d);
    o.b = get_cell_id(d);
    o.from = d.f64();
    o.until = d.f64();
    c.outages.push_back(o);
  }
  return c;
}

void put_profile(Encoder& e, const std::optional<traffic::DailyProfile>& p) {
  e.b(p.has_value());
  if (!p) return;
  const auto& knots = p->knots();
  e.u32(static_cast<std::uint32_t>(knots.size()));
  for (const auto& [hour, value] : knots) {
    e.f64(hour);
    e.f64(value);
  }
}
std::optional<traffic::DailyProfile> get_profile(Decoder& d) {
  if (!d.b()) return std::nullopt;
  const std::uint32_t n = d.u32();
  std::vector<std::pair<double, double>> knots;
  knots.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const double hour = d.f64();
    const double value = d.f64();
    knots.emplace_back(hour, value);
  }
  return traffic::DailyProfile(std::move(knots));
}

void put_histogram_summary(Encoder& e, const telemetry::HistogramSummary& h) {
  e.str(h.name);
  e.f64(h.lo);
  e.f64(h.hi);
  e.u64(h.count);
  e.f64(h.sum);
  e.f64(h.min);
  e.f64(h.max);
  e.f64(h.p50);
  e.f64(h.p99);
  e.u64(h.underflow);
  e.u64(h.overflow);
  e.u32(static_cast<std::uint32_t>(h.buckets.size()));
  for (const std::uint64_t b : h.buckets) e.u64(b);
}
telemetry::HistogramSummary get_histogram_summary(Decoder& d) {
  telemetry::HistogramSummary h;
  h.name = d.str();
  h.lo = d.f64();
  h.hi = d.f64();
  h.count = d.u64();
  h.sum = d.f64();
  h.min = d.f64();
  h.max = d.f64();
  h.p50 = d.f64();
  h.p99 = d.f64();
  h.underflow = d.u64();
  h.overflow = d.u64();
  const std::uint32_t n = d.u32();
  h.buckets.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) h.buckets.push_back(d.u64());
  return h;
}

}  // namespace

// ---- Configs -------------------------------------------------------------

void put_config(Encoder& e, const core::SystemConfig& c) {
  e.u32(static_cast<std::uint32_t>(c.num_cells));
  e.f64(c.cell_diameter_km);
  e.b(c.ring);
  e.f64(c.capacity_bu);
  e.f64(c.soft_capacity_margin);
  e.b(c.adaptive_qos);
  e.u32(static_cast<std::uint32_t>(c.video_min_bu));
  e.b(c.wired.has_value());
  if (c.wired) {
    e.f64(c.wired->access_capacity_bu);
    e.f64(c.wired->uplink_capacity_bu);
  }
  e.f64(c.soft_handoff_zone_km);
  e.u32(static_cast<std::uint32_t>(c.policy));
  e.f64(c.static_g);
  put_ns(e, c.ns);
  e.f64(c.phd_target);
  e.f64(c.t_start);
  e.u32(static_cast<std::uint32_t>(c.t_est_step));
  put_hoef(e, c.hoef);
  e.f64(c.known_route_fraction);
  e.f64(c.workload.arrival_rate_per_cell);
  e.f64(c.workload.voice_ratio);
  e.f64(c.workload.mean_lifetime_s);
  e.f64(c.workload.speed_min_kmh);
  e.f64(c.workload.speed_max_kmh);
  e.b(c.workload.bidirectional);
  e.b(c.retry.enabled);
  e.f64(c.retry.wait_s);
  e.f64(c.retry.giveup_step);
  put_profile(e, c.load_profile);
  put_profile(e, c.speed_profile);
  e.f64(c.speed_half_range_kmh);
  e.b(c.incremental_reservation);
  e.u32(static_cast<std::uint32_t>(c.interconnect));
  e.u32(static_cast<std::uint32_t>(c.traced_cells.size()));
  for (const geom::CellId cell : c.traced_cells) put_cell_id(e, cell);
  e.u32(static_cast<std::uint32_t>(c.audit_every));
  put_telemetry_config(e, c.telemetry);
  put_fault_config(e, c.fault);
  e.u64(c.seed);
  e.f64(c.time_origin);  // appended in format version 2
}

core::SystemConfig get_linear_config(Decoder& d) {
  core::SystemConfig c;
  c.num_cells = static_cast<int>(d.u32());
  c.cell_diameter_km = d.f64();
  c.ring = d.b();
  c.capacity_bu = d.f64();
  c.soft_capacity_margin = d.f64();
  c.adaptive_qos = d.b();
  c.video_min_bu = static_cast<traffic::Bandwidth>(d.u32());
  if (d.b()) {
    wired::BackboneConfig w;
    w.access_capacity_bu = d.f64();
    w.uplink_capacity_bu = d.f64();
    c.wired = w;
  } else {
    c.wired.reset();
  }
  c.soft_handoff_zone_km = d.f64();
  c.policy = static_cast<admission::PolicyKind>(d.u32());
  c.static_g = d.f64();
  c.ns = get_ns(d);
  c.phd_target = d.f64();
  c.t_start = d.f64();
  c.t_est_step = static_cast<reservation::StepPolicy>(d.u32());
  c.hoef = get_hoef(d);
  c.known_route_fraction = d.f64();
  c.workload.arrival_rate_per_cell = d.f64();
  c.workload.voice_ratio = d.f64();
  c.workload.mean_lifetime_s = d.f64();
  c.workload.speed_min_kmh = d.f64();
  c.workload.speed_max_kmh = d.f64();
  c.workload.bidirectional = d.b();
  c.retry.enabled = d.b();
  c.retry.wait_s = d.f64();
  c.retry.giveup_step = d.f64();
  c.load_profile = get_profile(d);
  c.speed_profile = get_profile(d);
  c.speed_half_range_kmh = d.f64();
  c.incremental_reservation = d.b();
  c.interconnect = static_cast<backhaul::InterconnectKind>(d.u32());
  const std::uint32_t n_traced = d.u32();
  c.traced_cells.clear();
  c.traced_cells.reserve(n_traced);
  for (std::uint32_t i = 0; i < n_traced; ++i) {
    c.traced_cells.push_back(get_cell_id(d));
  }
  c.audit_every = static_cast<int>(d.u32());
  c.telemetry = get_telemetry_config(d);
  c.fault = get_fault_config(d);
  c.seed = d.u64();
  c.time_origin = d.f64();
  return c;
}

std::uint64_t config_digest(const core::SystemConfig& c) {
  Encoder e;
  put_config(e, c);
  return util::fnv1a_bytes(e.bytes().data(), e.bytes().size());
}

void put_config(Encoder& e, const core::HexSystemConfig& c) {
  e.u32(static_cast<std::uint32_t>(c.rows));
  e.u32(static_cast<std::uint32_t>(c.cols));
  e.b(c.wrap);
  e.f64(c.capacity_bu);
  e.u32(static_cast<std::uint32_t>(c.policy));
  e.f64(c.static_g);
  put_ns(e, c.ns);
  e.f64(c.phd_target);
  e.f64(c.t_start);
  put_hoef(e, c.hoef);
  e.f64(c.arrival_rate_per_cell);
  e.f64(c.voice_ratio);
  e.f64(c.mean_lifetime_s);
  e.f64(c.speed_min_kmh);
  e.f64(c.speed_max_kmh);
  e.f64(c.motion.cell_diameter_km);
  e.f64(c.motion.persistence);
  e.f64(c.motion.jitter);
  e.b(c.incremental_reservation);
  e.u32(static_cast<std::uint32_t>(c.audit_every));
  put_telemetry_config(e, c.telemetry);
  put_fault_config(e, c.fault);
  e.u64(c.seed);
}

core::HexSystemConfig get_hex_config(Decoder& d) {
  core::HexSystemConfig c;
  c.rows = static_cast<int>(d.u32());
  c.cols = static_cast<int>(d.u32());
  c.wrap = d.b();
  c.capacity_bu = d.f64();
  c.policy = static_cast<admission::PolicyKind>(d.u32());
  c.static_g = d.f64();
  c.ns = get_ns(d);
  c.phd_target = d.f64();
  c.t_start = d.f64();
  c.hoef = get_hoef(d);
  c.arrival_rate_per_cell = d.f64();
  c.voice_ratio = d.f64();
  c.mean_lifetime_s = d.f64();
  c.speed_min_kmh = d.f64();
  c.speed_max_kmh = d.f64();
  c.motion.cell_diameter_km = d.f64();
  c.motion.persistence = d.f64();
  c.motion.jitter = d.f64();
  c.incremental_reservation = d.b();
  c.audit_every = static_cast<int>(d.u32());
  c.telemetry = get_telemetry_config(d);
  c.fault = get_fault_config(d);
  c.seed = d.u64();
  return c;
}

std::uint64_t config_digest(const core::HexSystemConfig& c) {
  Encoder e;
  put_config(e, c);
  return util::fnv1a_bytes(e.bytes().data(), e.bytes().size());
}

// ---- Statistics accumulators --------------------------------------------

void put_twm(Encoder& e, const sim::TimeWeightedMean& m) {
  const sim::TimeWeightedMean::State s = m.state();
  e.f64(s.integral);
  e.f64(s.current);
  e.f64(s.last_time);
  e.f64(s.start);
  e.b(s.has_value);
}

void restore_twm(Decoder& d, sim::TimeWeightedMean& m) {
  sim::TimeWeightedMean::State s;
  s.integral = d.f64();
  s.current = d.f64();
  s.last_time = d.f64();
  s.start = d.f64();
  s.has_value = d.b();
  m.restore(s);
}

void put_cell_metrics(Encoder& e, const core::CellMetrics& m) {
  put_ratio(e, m.pcb);
  put_ratio(e, m.phd);
  put_twm(e, m.br_mean);
  put_twm(e, m.bu_mean);
  e.u64(m.degrades.count());
  e.u64(m.upgrades.count());
  put_twm(e, m.overload);
  e.u64(m.soft_alloc.count());
  e.u64(m.soft_fallback.count());
}

void restore_cell_metrics(Decoder& d, core::CellMetrics& m) {
  restore_ratio(d, m.pcb);
  restore_ratio(d, m.phd);
  restore_twm(d, m.br_mean);
  restore_twm(d, m.bu_mean);
  m.degrades.restore(d.u64());
  m.upgrades.restore(d.u64());
  restore_twm(d, m.overload);
  m.soft_alloc.restore(d.u64());
  m.soft_fallback.restore(d.u64());
}

void put_series(Encoder& e, const sim::Series& s) {
  const auto& points = s.points();
  e.u32(static_cast<std::uint32_t>(points.size()));
  for (const sim::Series::Point& p : points) {
    e.f64(p.t);
    e.f64(p.v);
  }
}

void restore_series(Decoder& d, sim::Series& s) {
  PABR_CHECK(s.empty(), "series restore on a non-empty series");
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const double t = d.f64();
    const double v = d.f64();
    s.add(t, v);
  }
}

// ---- Event calendar ------------------------------------------------------

void put_pending(Encoder& e,
                 const std::optional<sim::EventQueue::PendingInfo>& p) {
  e.b(p.has_value());
  if (p.has_value()) {
    e.f64(p->when);
    e.u64(p->seq);
  }
}

std::optional<sim::EventQueue::PendingInfo> get_pending(Decoder& d) {
  if (!d.b()) return std::nullopt;
  sim::EventQueue::PendingInfo p;
  p.when = d.f64();
  p.seq = d.u64();
  return p;
}

void put_simulator(Writer& w, const sim::Simulator& s,
                   int events_since_audit) {
  auto& e = w.begin_section("simulator");
  e.f64(s.now());
  e.u64(s.events_executed());
  e.u64(s.queue_next_seq());
  e.u64(s.queue_next_id());
  e.u64(static_cast<std::uint64_t>(events_since_audit));
}

CalendarReplay::CalendarReplay(const Reader& reader) {
  auto d = reader.open("simulator");
  now_ = d.f64();
  executed_ = d.u64();
  next_seq_ = d.u64();
  next_id_ = d.u64();
  events_since_audit_ = static_cast<int>(d.u64());
  d.finish();
}

void CalendarReplay::add(
    const std::optional<sim::EventQueue::PendingInfo>& pending,
    Schedule schedule) {
  if (pending.has_value()) saved_.push_back({*pending, std::move(schedule)});
}

void CalendarReplay::finish(sim::Simulator& s) {
  std::sort(saved_.begin(), saved_.end(), [](const Saved& a, const Saved& b) {
    return a.pending.seq < b.pending.seq;
  });
  for (Saved& ev : saved_) ev.schedule(ev.pending.when);
  s.advance_queue_counters(std::max(next_seq_, s.queue_next_seq()),
                           std::max(next_id_, s.queue_next_id()));
  s.restore_clock(now_, executed_);
}

// ---- Radio / control-plane state ----------------------------------------

void put_cell(Encoder& e, const core::Cell& cell) {
  const auto& entries = cell.connections();
  e.u32(static_cast<std::uint32_t>(entries.size()));
  for (const traffic::ConnectionEntry& entry : entries) {
    e.u64(entry.id);
    e.i64(entry.bandwidth);
    e.i64(entry.view.reserve_bandwidth);
    put_cell_id(e, entry.view.prev_cell);
    e.f64(entry.view.entered_cell_at);
    e.i64(entry.view.direction);
    e.b(entry.view.route_known);
  }
}

void restore_cell(Decoder& d, core::Cell& cell) {
  PABR_CHECK(cell.connection_count() == 0,
             "cell restore on a non-empty cell");
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const traffic::ConnectionId id = d.u64();
    const auto bw = static_cast<traffic::Bandwidth>(d.i64());
    traffic::ReservationView view;
    view.reserve_bandwidth = static_cast<traffic::Bandwidth>(d.i64());
    view.prev_cell = get_cell_id(d);
    view.entered_cell_at = d.f64();
    view.direction = static_cast<std::int8_t>(d.i64());
    view.route_known = d.b();
    cell.attach(id, bw, view);
  }
}

void put_station(Encoder& e, const core::BaseStation& bs) {
  bs.estimator().save(e);
  const reservation::TestWindowController::State w = bs.window().state();
  e.u64(w.w_obs);
  e.u64(w.n_h);
  e.u64(w.n_hd);
  e.f64(w.t_est);
  e.i64(w.last_direction);
  e.i64(w.streak);
  e.f64(bs.current_reservation());
}

void restore_station(Decoder& d, core::BaseStation& bs) {
  bs.estimator().load(d);
  reservation::TestWindowController::State w;
  w.w_obs = d.u64();
  w.n_h = d.u64();
  w.n_hd = d.u64();
  w.t_est = d.f64();
  w.last_direction = static_cast<int>(d.i64());
  w.streak = static_cast<int>(d.i64());
  bs.window().restore(w);
  bs.set_current_reservation(d.f64());
}

// ---- Traffic entities ----------------------------------------------------

void put_request(Encoder& e, const traffic::ConnectionRequest& r) {
  e.u64(r.id);
  put_cell_id(e, r.cell);
  e.f64(r.position_km);
  e.i64(r.direction);
  e.f64(r.speed_kmh);
  e.u32(static_cast<std::uint32_t>(r.service));
  e.f64(r.lifetime_s);
  e.f64(r.requested_at);
  e.i64(r.attempt);
}

traffic::ConnectionRequest get_request(Decoder& d) {
  traffic::ConnectionRequest r;
  r.id = d.u64();
  r.cell = get_cell_id(d);
  r.position_km = d.f64();
  r.direction = static_cast<int>(d.i64());
  r.speed_kmh = d.f64();
  r.service = static_cast<traffic::ServiceClass>(d.u32());
  r.lifetime_s = d.f64();
  r.requested_at = d.f64();
  r.attempt = static_cast<int>(d.i64());
  return r;
}

void put_mobile(Encoder& e, const mobility::Mobile& m) {
  e.u64(m.id);
  e.u32(static_cast<std::uint32_t>(m.service));
  put_cell_id(e, m.cell);
  put_cell_id(e, m.prev_cell);
  e.f64(m.entered_cell_at);
  e.f64(m.position_km);
  e.f64(m.position_at);
  e.i64(m.direction);
  e.f64(m.speed_kmh);
  e.f64(m.admitted_at);
  e.f64(m.expires_at);
  e.b(m.route_known);
  e.i64(m.current_bandwidth);
}

mobility::Mobile get_mobile(Decoder& d) {
  mobility::Mobile m;
  m.id = d.u64();
  m.service = static_cast<traffic::ServiceClass>(d.u32());
  m.cell = get_cell_id(d);
  m.prev_cell = get_cell_id(d);
  m.entered_cell_at = d.f64();
  m.position_km = d.f64();
  m.position_at = d.f64();
  m.direction = static_cast<int>(d.i64());
  m.speed_kmh = d.f64();
  m.admitted_at = d.f64();
  m.expires_at = d.f64();
  m.route_known = d.b();
  m.current_bandwidth = static_cast<traffic::Bandwidth>(d.i64());
  return m;
}

// ---- Backhaul ------------------------------------------------------------

void put_accountant(Encoder& e, const backhaul::SignalingAccountant& a) {
  PABR_CHECK(!a.admission_open(),
             "snapshot inside an open admission bracket");
  e.f64(a.per_admission_sum());
  e.u64(a.admissions_observed());
  e.u64(a.total_br_calculations());
}

void restore_accountant(Decoder& d, backhaul::SignalingAccountant& a) {
  const double sum = d.f64();
  const std::uint64_t admissions = d.u64();
  const std::uint64_t total = d.u64();
  a.restore(sum, admissions, total);
}

void put_interconnect(Encoder& e, const backhaul::InterconnectModel& ic) {
  constexpr auto kCount =
      static_cast<std::size_t>(backhaul::MessageType::kCount);
  for (std::size_t t = 0; t < kCount; ++t) {
    e.u64(ic.messages(static_cast<backhaul::MessageType>(t)));
  }
  e.u64(ic.total_hops());
}

void restore_interconnect(Decoder& d, backhaul::InterconnectModel& ic) {
  constexpr auto kCount =
      static_cast<std::size_t>(backhaul::MessageType::kCount);
  std::array<std::uint64_t, kCount> by_type{};
  for (std::size_t t = 0; t < kCount; ++t) by_type[t] = d.u64();
  const std::uint64_t total_hops = d.u64();
  ic.restore(by_type, total_hops);
}

void put_backbone(Encoder& e, const wired::Backbone& b, int num_cells) {
  for (geom::CellId c = 0; c < num_cells; ++c) {
    const auto& attached = b.access(c).attachments();
    e.u32(static_cast<std::uint32_t>(attached.size()));
    for (const auto& [id, bw] : attached) {
      e.u64(id);
      e.i64(bw);
    }
    e.f64(b.reservation(c));
  }
}

void restore_backbone(Decoder& d, wired::Backbone& b, int num_cells) {
  for (geom::CellId c = 0; c < num_cells; ++c) {
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const traffic::ConnectionId id = d.u64();
      const auto bw = static_cast<traffic::Bandwidth>(d.i64());
      b.admit(c, id, bw);
    }
    b.set_reservation(c, d.f64());
  }
}

// ---- Reservation engine --------------------------------------------------

void put_engine(Encoder& e, const reservation::IncrementalEngine& eng) {
  const auto& stale = eng.stale_keys();
  e.u32(static_cast<std::uint32_t>(stale.size()));
  for (const std::uint64_t key : stale) e.u64(key);
  e.u64(eng.pairs_invalidated());
  e.u64(eng.terms_recomputed());
  e.u64(eng.terms_reused());
}

void restore_engine(Decoder& d, reservation::IncrementalEngine& eng) {
  const std::uint32_t n = d.u32();
  std::vector<std::uint64_t> stale;
  stale.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) stale.push_back(d.u64());
  const std::uint64_t invalidated = d.u64();
  const std::uint64_t recomputed = d.u64();
  const std::uint64_t reused = d.u64();
  eng.restore(std::move(stale), invalidated, recomputed, reused);
}

// ---- Telemetry -----------------------------------------------------------

void put_metrics_snapshot(Encoder& e, const telemetry::MetricsSnapshot& s) {
  e.u32(static_cast<std::uint32_t>(s.counters.size()));
  for (const auto& [name, v] : s.counters) {
    e.str(name);
    e.u64(v);
  }
  e.u32(static_cast<std::uint32_t>(s.gauges.size()));
  for (const auto& [name, v] : s.gauges) {
    e.str(name);
    e.f64(v);
  }
  e.u32(static_cast<std::uint32_t>(s.histograms.size()));
  for (const telemetry::HistogramSummary& h : s.histograms) {
    put_histogram_summary(e, h);
  }
}

telemetry::MetricsSnapshot get_metrics_snapshot(Decoder& d) {
  telemetry::MetricsSnapshot s;
  std::uint32_t n = d.u32();
  s.counters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = d.str();
    const std::uint64_t v = d.u64();
    s.counters.emplace_back(std::move(name), v);
  }
  n = d.u32();
  s.gauges.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = d.str();
    const double v = d.f64();
    s.gauges.emplace_back(std::move(name), v);
  }
  n = d.u32();
  s.histograms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.histograms.push_back(get_histogram_summary(d));
  }
  return s;
}

void put_trace_buffer(Encoder& e, const telemetry::TraceBuffer& b) {
  const std::vector<telemetry::TraceRecord> records = b.records();
  e.u32(static_cast<std::uint32_t>(records.size()));
  for (const telemetry::TraceRecord& r : records) {
    e.f64(r.t);
    e.i64(r.cell);
    e.u32(r.kind);
    e.u32(r.stream);
    e.u64(r.mobile);
    e.f64(r.payload);
  }
  e.u64(b.emitted());
  e.u64(b.sampled_out());
  e.u64(b.rotated_out());
  e.u64(b.sample_seq());
}

void restore_trace_buffer(Decoder& d, telemetry::TraceBuffer& b) {
  const std::uint32_t n = d.u32();
  std::vector<telemetry::TraceRecord> records;
  records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    telemetry::TraceRecord r;
    r.t = d.f64();
    r.cell = static_cast<std::int32_t>(d.i64());
    r.kind = static_cast<std::uint16_t>(d.u32());
    r.stream = static_cast<std::uint16_t>(d.u32());
    r.mobile = d.u64();
    r.payload = d.f64();
    records.push_back(r);
  }
  const std::uint64_t emitted = d.u64();
  const std::uint64_t sampled_out = d.u64();
  const std::uint64_t rotated_out = d.u64();
  const std::uint64_t sample_seq = d.u64();
  b.restore(records, emitted, sampled_out, rotated_out, sample_seq);
}

}  // namespace pabr::snapshot
