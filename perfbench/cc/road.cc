// The two 1-D road workloads (paper §5.2 and §5.3) on core::CellularSystem.
//
// road_stationary  — the Table 2 / Fig. 13 configuration: 10-cell ring,
//   L = 300, R_vo = 1, high mobility, AC3, T_int = infinity. Timed after a
//   warm-up, so the HOEF rings and T_est have settled: a small, hot working
//   set dominated by the incremental engine's all-hit path and the
//   infinite-T_int snapshot rebuild.
// road_timevarying — the §5.3 day: AC3, retries, T_int = 1 h. Warms up
//   through the night and is timed across the morning ramp into the 9:00
//   peak, with an in-memory save() every simulated hour as
//   --checkpoint-every users do. Finite T_int disables pair-cache reuse and
//   rebuilds HOEF snapshots on t0 drift — the same layers used the other
//   way round.
#include <algorithm>
#include <cmath>
#include <ostream>

#include "audit/differential.h"
#include "bench.h"
#include "core/scenario.h"
#include "probes.h"

namespace perfbench {
namespace {

using pabr::core::CellularSystem;
using pabr::core::SystemConfig;
using pabr::sim::Time;

struct RoadSpec {
  SystemConfig config;
  Time warmup_end = 0.0;  ///< setup runs the simulation to here
  Time timed_end = 0.0;   ///< the timed horizon is [warmup_end, timed_end)
  int slices = 0;
  double checkpoint_every = 0.0;  ///< 0 = no periodic save()
};

constexpr double kHour = 3600.0;

RoadSpec road_spec(const std::string& workload, std::uint64_t seed,
                   bool reference) {
  RoadSpec s;
  if (workload == "road_stationary") {
    pabr::core::StationaryParams p;
    p.offered_load = 300.0;
    p.voice_ratio = 1.0;
    p.mobility = pabr::core::Mobility::kHigh;
    p.policy = pabr::admission::PolicyKind::kAc3;
    p.seed = seed;
    s.config = pabr::core::stationary_config(p);
    s.warmup_end = reference ? 300.0 : 2000.0;
    s.timed_end = s.warmup_end + (reference ? 200.0 : 2000.0);
    s.slices = reference ? 20 : 200;
  } else {
    pabr::core::TimeVaryingParams p;
    p.voice_ratio = 1.0;
    p.policy = pabr::admission::PolicyKind::kAc3;
    p.seed = seed;
    s.config = pabr::core::time_varying_config(p);
    s.checkpoint_every = kHour;
    // Night (load 20-30) as warm-up, then 06:00 -> 09:00: the ramp from
    // L = 30 into the L = 150 morning peak. The reference run starts cold
    // at 08:00 so that its short hour is congested: admission decisions
    // near the capacity boundary are what a trajectory change shows in.
    if (reference) s.config.time_origin = 8.0 * kHour;
    s.warmup_end = reference ? 8.0 * kHour : 6.0 * kHour;
    s.timed_end = 9.0 * kHour;
    s.slices = reference ? 24 : 216;
  }
  return s;
}

/// Advances to `t`, writing the periodic checkpoint at every multiple of
/// the cadence crossed on the way (into memory, overwritten each time).
void advance(CellularSystem& sys, const RoadSpec& spec, Time t,
             MemorySink& checkpoint) {
  if (spec.checkpoint_every <= 0.0) {
    sys.run_until(t);
    return;
  }
  for (;;) {
    const Time next =
        (std::floor(sys.now() / spec.checkpoint_every) + 1.0) *
        spec.checkpoint_every;
    if (next > t) break;
    sys.run_until(next);
    checkpoint.clear();
    std::ostream os(&checkpoint);
    sys.save(os);
  }
  sys.run_until(t);
}

struct Timed {
  RunRecord rec;
  std::unique_ptr<CellularSystem> sys;
  std::vector<double> active;  ///< active connections at each slice end
};

/// One run: construct, warm up (setup), then the timed slices. With a
/// non-null `layers`, probes a clone at `probe_points` evenly spaced
/// slice boundaries (probe time is excluded from the timed horizon).
Timed timed_run(const RoadSpec& spec, bool telemetry, Layers* layers = nullptr,
                int probe_points = 0) {
  Timed out;
  SystemConfig cfg = spec.config;
  if (telemetry) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.trace = false;
  }
  MemorySink checkpoint;

  const auto t_setup = Clock::now();
  out.sys = std::make_unique<CellularSystem>(cfg);
  CellularSystem& sys = *out.sys;
  advance(sys, spec, spec.warmup_end, checkpoint);
  sys.reset_metrics();
  out.rec.setup_s = seconds_since(t_setup);

  const std::uint64_t events0 = sys.events_executed();
  const double dt = (spec.timed_end - spec.warmup_end) / spec.slices;
  const int probe_every =
      probe_points > 0 ? std::max(1, spec.slices / probe_points) : 0;
  double max_diff = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t points = 0;
  for (int k = 1; k <= spec.slices; ++k) {
    const Time t = k == spec.slices ? spec.timed_end
                                    : spec.warmup_end + dt * k;
    const auto t0 = Clock::now();
    advance(sys, spec, t, checkpoint);
    const double s = seconds_since(t0);
    out.rec.wall_s += s;
    out.rec.slice_ms.push_back(s * 1e3);
    out.active.push_back(static_cast<double>(sys.active_connections()));
    if (layers != nullptr && probe_every > 0 && k % probe_every == 0) {
      const OracleResult o = probe_clone(sys, *layers);
      if (!o.ok()) {
        out.rec.oracles_ok = false;
        out.rec.oracle_error = o.error;
      }
      max_diff = std::max(max_diff, o.max_abs_diff);
      violations += o.violations;
      ++points;
    }
  }
  if (layers != nullptr) {
    layers->value("reservation.max_abs_diff", "BU", max_diff, points);
    layers->value("audit.violations", "count",
                  static_cast<double>(violations), points);
  }
  out.rec.sim_s = spec.timed_end - spec.warmup_end;
  out.rec.events = sys.events_executed() - events0;
  out.rec.digest = pabr::audit::trajectory_digest(sys);
  const auto st = sys.system_status();
  out.rec.pcb = st.pcb;
  out.rec.phd = st.phd;
  out.rec.n_calc = st.n_calc;
  out.rec.traced = telemetry;

  const OracleResult o = check_oracles(sys);
  if (!o.ok()) {
    out.rec.oracles_ok = false;
    out.rec.oracle_error = o.error;
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void trace_layers(const RoadSpec& spec, const Options& opt, Report& report) {
  Layers& L = report.layers;
  Timed traced = timed_run(spec, true, &L, 4);
  CellularSystem& sys = *traced.sys;
  report.runs.push_back(traced.rec);

  L.value("core.events", "count", static_cast<double>(traced.rec.events), 1);
  const double active = mean(traced.active);
  L.value("core.active_connections_mean", "count", active,
          traced.active.size());

  // Pending depth of the road calendar: one expiry and one crossing per
  // live mobile plus the next Poisson arrival.
  const auto depth = static_cast<std::size_t>(std::lround(2.0 * active)) + 1;
  replay_layers(L, depth, depth, num_cells(sys), opt.seed);
  counter_layers(L, sys.telemetry_snapshot(), traced.rec.wall_s * 1e9);
  backhaul_layers(L, sys.system_status());
}

}  // namespace

bool run_road(const Options& opt, Report& report) {
  if (opt.workload != "road_stationary" &&
      opt.workload != "road_timevarying") {
    return false;
  }
  const RoadSpec ref = road_spec(opt.workload, kReferenceSeed, true);
  report.reference = timed_run(ref, false).rec;

  const RoadSpec spec = road_spec(opt.workload, opt.seed, false);
  if (opt.trace) {
    // Telemetry overhead from alternating untraced / traced runs without
    // probes (at least one pair, more while half the budget lasts), then
    // one traced run that probes clones for the layer metrics.
    std::vector<double> off;
    std::vector<double> on;
    const auto t0 = Clock::now();
    do {
      for (const bool telemetry : {false, true}) {
        report.runs.push_back(timed_run(spec, telemetry).rec);
        (telemetry ? on : off).push_back(report.runs.back().events_per_s());
      }
    } while (seconds_since(t0) < 0.5 * opt.seconds && off.size() < 10);
    trace_layers(spec, opt, report);
    report.layers.value("telemetry.overhead_pct", "%",
                        overhead_pct(off, on), off.size() + on.size());
    return true;
  }
  // At least three runs (so setup_s and the per-run figures have a
  // median), then as many more as the measurement budget allows.
  const auto t0 = Clock::now();
  do {
    report.runs.push_back(timed_run(spec, false).rec);
  } while (report.runs.size() < 3 ||
           (seconds_since(t0) < opt.seconds && report.runs.size() < 50));
  return true;
}

}  // namespace perfbench
