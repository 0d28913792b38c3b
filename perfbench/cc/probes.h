// Outside-in layer probes, shared by the workloads: the clone probes, the
// oracles, the calendar replays and the figures read off the program's
// telemetry registry.
//
// Every probe that touches simulator state runs on an in-memory clone made
// with save()/load(), never on the live system: under a finite T_int the
// HOEF snapshots are built lazily by the first lookup after t0 drifts, so
// probing the live estimators would change when they rebuild and shift
// the trajectory. save() itself is trajectory-transparent (invariant
// I10), which the traced run's end digest confirms.
//
// The probes reach the layers through their public API only:
// CellularSystem / HexCellularSystem (save, load, cell, base_station,
// recompute_reservation, scratch_reservation, audit_invariants),
// admission::make_policy(...)->admit and
// hoef::HandoffEstimator::{record, handoff_probability_probe}.
#pragma once

#include <bit>
#include <cmath>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "admission/policy.h"
#include "bench.h"
#include "core/hex_system.h"
#include "core/system.h"
#include "replay.h"
#include "telemetry/metrics.h"

namespace perfbench {

inline int num_cells(const pabr::core::CellularSystem& s) {
  return s.config().num_cells;
}
inline int num_cells(const pabr::core::HexCellularSystem& s) {
  return s.grid().num_cells();
}

inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Forwards every AdmissionContext call to the clone and times the
/// recompute_reservation calls made through it, so the policy's own
/// share of an admit() can be separated from the B_r work it triggers.
class TimedContext final : public pabr::admission::AdmissionContext {
 public:
  explicit TimedContext(pabr::admission::AdmissionContext& inner)
      : inner_(inner) {}

  double capacity(pabr::geom::CellId c) const override {
    return inner_.capacity(c);
  }
  double used_bandwidth(pabr::geom::CellId c) const override {
    return inner_.used_bandwidth(c);
  }
  const std::vector<pabr::geom::CellId>& adjacent(
      pabr::geom::CellId c) const override {
    return inner_.adjacent(c);
  }
  double recompute_reservation(pabr::geom::CellId c) override {
    const auto t0 = Clock::now();
    const double br = inner_.recompute_reservation(c);
    inner_ns += ns_since(t0);
    return br;
  }
  double current_reservation(pabr::geom::CellId c) const override {
    return inner_.current_reservation(c);
  }
  double scratch_reservation(pabr::geom::CellId c) override {
    return inner_.scratch_reservation(c);
  }
  bool neighbor_reachable(pabr::geom::CellId c,
                          pabr::geom::CellId n) override {
    return inner_.neighbor_reachable(c, n);
  }

  double inner_ns = 0.0;

 private:
  pabr::admission::AdmissionContext& inner_;
};

/// Oracle outcome of one clone: recompute_reservation vs
/// scratch_reservation on every cell, and the invariant sweep.
struct OracleResult {
  double max_abs_diff = 0.0;
  bool bitwise_equal = true;
  std::uint64_t violations = 0;
  std::string error;

  bool ok() const { return bitwise_equal && violations == 0; }
};

struct CloneTiming {
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t bytes = 0;
};

template <class System>
std::unique_ptr<System> clone_of(System& live, CloneTiming* timing = nullptr) {
  MemorySink sink;
  std::ostream os(&sink);
  auto t0 = Clock::now();
  live.save(os);
  const double save_ms = ns_since(t0) / 1e6;
  MemorySource source(sink.data());
  std::istream is(&source);
  t0 = Clock::now();
  auto clone = System::load(is);
  if (timing != nullptr) {
    *timing = {save_ms, ns_since(t0) / 1e6, sink.data().size()};
  }
  return clone;
}

/// The seed-independent oracles, on a clone of `live`.
template <class System>
OracleResult check_oracles(System& live) {
  OracleResult r;
  try {
    auto clone = clone_of(live);
    clone->audit_invariants();
    for (int c = 0; c < num_cells(*clone); ++c) {
      const double inc = clone->recompute_reservation(c);
      const double ref = clone->scratch_reservation(c);
      r.max_abs_diff = std::max(r.max_abs_diff, std::abs(inc - ref));
      if (std::bit_cast<std::uint64_t>(inc) !=
          std::bit_cast<std::uint64_t>(ref)) {
        r.bitwise_equal = false;
        r.error = "incremental B_r != scratch B_r in cell " +
                  std::to_string(c);
      }
    }
  } catch (const std::exception& e) {
    ++r.violations;
    r.error = e.what();
  }
  return r;
}

/// All clone-based layer probes at the live system's current instant.
/// Samples accumulate in `layers` across calls (one call per probe point).
template <class System>
OracleResult probe_clone(System& live, Layers& layers) {
  using pabr::geom::CellId;
  OracleResult r;
  CloneTiming timing;
  auto clone = clone_of(live, &timing);
  System& sys = *clone;
  layers.samples("snapshot.save_ms", "ms").samples.push_back(timing.save_ms);
  layers.samples("snapshot.load_ms", "ms").samples.push_back(timing.load_ms);
  layers.samples("snapshot.bytes", "bytes")
      .samples.push_back(static_cast<double>(timing.bytes));
  const int n = num_cells(sys);
  const pabr::sim::Time t = sys.now();

  auto t0 = Clock::now();
  try {
    sys.audit_invariants();
  } catch (const std::exception& e) {
    ++r.violations;
    r.error = e.what();
  }
  layers.samples("audit.sweep_ms", "ms").samples.push_back(ns_since(t0) / 1e6);

  // Reservation engine: first and repeated recompute per cell at this
  // instant, then the from-scratch reference; the two must agree bitwise.
  constexpr int kWarmRepeats = 8;
  auto& cold = layers.samples("reservation.recompute_ns_cold", "ns");
  auto& warm = layers.samples("reservation.recompute_ns_warm", "ns");
  auto& scratch = layers.samples("reservation.scratch_ns", "ns");
  for (CellId c = 0; c < n; ++c) {
    t0 = Clock::now();
    sys.recompute_reservation(c);
    cold.samples.push_back(ns_since(t0));
    ++cold.n;
  }
  for (CellId c = 0; c < n; ++c) {
    double inc = 0.0;
    t0 = Clock::now();
    for (int k = 0; k < kWarmRepeats; ++k) inc = sys.recompute_reservation(c);
    warm.samples.push_back(ns_since(t0) / kWarmRepeats);
    warm.n += kWarmRepeats;
    t0 = Clock::now();
    const double ref = sys.scratch_reservation(c);
    scratch.samples.push_back(ns_since(t0));
    ++scratch.n;
    r.max_abs_diff = std::max(r.max_abs_diff, std::abs(inc - ref));
    if (std::bit_cast<std::uint64_t>(inc) !=
        std::bit_cast<std::uint64_t>(ref)) {
      r.bitwise_equal = false;
      r.error = "incremental B_r != scratch B_r in cell " + std::to_string(c);
    }
  }

  // HOEF Eq. (4) probes over the clone's live connection tables: every
  // connection of every neighbour, toward the target cell (one sample per
  // target cell, averaged over its probes).
  auto& probe = layers.samples("hoef.probe_ns", "ns");
  double sink = 0.0;
  for (CellId c = 0; c < n; ++c) {
    const double t_est = sys.base_station(c).window().t_est();
    std::uint64_t calls = 0;
    t0 = Clock::now();
    for (const CellId i : sys.adjacent(c)) {
      const auto& est = sys.base_station(i).estimator();
      for (const auto& e : sys.cell(i).connections()) {
        const double extant = t - e.view.entered_cell_at;
        sink += e.view.route_known
                    ? est.any_handoff_probability_probe(t, e.view.prev_cell,
                                                        extant, t_est)
                          .probability
                    : est.handoff_probability_probe(t, e.view.prev_cell, c,
                                                    extant, t_est)
                          .probability;
        ++calls;
      }
    }
    if (calls > 0) {
      probe.samples.push_back(ns_since(t0) / static_cast<double>(calls));
      probe.n += calls;
    }
  }

  // Admission: the policy's own time inside admit(), net of the B_r
  // recomputations it asks for.
  const auto& cfg = sys.config();
  const auto policy =
      pabr::admission::make_policy(cfg.policy, cfg.static_g, &cfg.ns);
  TimedContext ctx(sys);
  auto& self = layers.samples("admission.self_ns", "ns");
  for (CellId c = 0; c < n; ++c) {
    ctx.inner_ns = 0.0;
    t0 = Clock::now();
    sink += policy->admit(ctx, c, 1) ? 1.0 : 0.0;
    self.samples.push_back(ns_since(t0) - ctx.inner_ns);
    ++self.n;
  }

  std::uint64_t cached = 0;
  for (CellId c = 0; c < n; ++c) {
    cached += sys.base_station(c).estimator().cached_events();
  }
  layers.samples("hoef.cached_events", "count")
      .samples.push_back(static_cast<double>(cached));

  // Snapshot rebuild: record one quadruplet from each neighbour `prev`
  // (the next cell is another neighbour), then probe the rebuilt
  // function. Mutates the clone's estimators, so it runs last.
  auto& rebuild = layers.samples("hoef.rebuild_ns", "ns");
  for (CellId c = 0; c < n; ++c) {
    auto& est = sys.base_station(c).estimator();
    const auto& adj = sys.adjacent(c);
    const double t_est = sys.base_station(c).window().t_est();
    for (std::size_t k = 0; k < adj.size(); ++k) {
      pabr::hoef::Quadruplet q;
      q.event_time = t;
      q.prev = adj[k];
      q.next = adj[(k + 1) % adj.size()];
      q.sojourn = 30.0;
      t0 = Clock::now();
      est.record(q);
      sink += est.handoff_probability_probe(t, q.prev, q.next, 0.0, t_est)
                  .probability;
      rebuild.samples.push_back(ns_since(t0));
      ++rebuild.n;
    }
  }
  if (std::isnan(sink)) r.error = "NaN probability";
  return r;
}

/// Calendar replays at the workload's pending depths (replay.h).
inline void replay_layers(Layers& layers, std::size_t queue_depth,
                          std::size_t calendar_depth, int calendar_cells,
                          std::uint64_t seed) {
  constexpr int kBatches = 30;
  constexpr int kEventsPerBatch = 20000;
  auto& q = layers.samples("sim.queue_ns_per_event", "ns");
  q.samples = queue_replay_ns(queue_depth, seed, kBatches, kEventsPerBatch);
  q.n = kBatches * kEventsPerBatch;
  auto& c = layers.samples("sharded.calendar_ns_per_event", "ns");
  c.samples = calendar_replay_ns(calendar_depth, calendar_cells, seed,
                                 kBatches, kEventsPerBatch);
  c.n = kBatches * kEventsPerBatch;
}

/// Layer figures from the program's own telemetry registry over the timed
/// horizon. `busy_ns` is the time the admission.ns histogram's sum is a
/// share of.
inline void counter_layers(Layers& layers,
                           const pabr::telemetry::MetricsSnapshot& snap,
                           double busy_ns) {
  const auto count = [&snap](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  layers.value("hoef.quads_recorded", "count", count("hoef.quads_recorded"),
               1);
  layers.value("hoef.quads_evicted", "count", count("hoef.quads_evicted"), 1);
  const double reused = count("reservation.terms_reused");
  layers.ratio("reservation.term_reuse_ratio", reused,
               reused + count("reservation.terms_recomputed"));
  layers.value("reservation.recomputes", "count",
               count("reservation.recomputes"), 1);
  for (const auto& h : snap.histograms) {
    if (h.name != "admission.ns") continue;
    layers.value("admission.ns_p50", "ns", h.p50, h.count);
    layers.value("admission.ns_p99", "ns", h.p99, h.count);
    layers.ratio("admission.share", h.sum, busy_ns);
  }
  const double admitted = count("admission.admitted");
  layers.ratio("admission.admit_ratio", admitted,
               admitted + count("admission.blocked"));
}

inline void backhaul_layers(Layers& layers,
                            const pabr::core::SystemStatus& st) {
  layers.value("backhaul.br_calculations", "count",
               static_cast<double>(st.br_calculations), 1);
  layers.ratio("backhaul.messages_per_admission",
               static_cast<double>(st.backhaul_messages),
               static_cast<double>(st.requests));
}

}  // namespace perfbench
