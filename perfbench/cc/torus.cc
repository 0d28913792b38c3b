// The sharded torus workload: the scale_sweep acceptance grid, a 32x32
// hex torus at 0.5 conn/s/cell under AC2, run through ShardedExecutor at
// 4 shards from a cold start. The only workload with 1,024 estimators
// (far past the CPU caches), barrier-synchronised worker threads and the
// sharded::EventCalendar; its timed horizon spans the N_quad ring fill,
// where throughput decays as the HOEF rings grow.
//
// ShardedExecutor::run() is one-shot and exposes no live state, so:
//   * the slice figures time cold-start executor jobs of kSliceSlots slots
//     each (construction + run), not slices of the long horizon, and
//     set-up is a zero-horizon job (construction, shard set-up, threads);
//   * the clone-based layer probes run on core::HexCellularSystem built
//     from the same HexSystemConfig — the serial engine whose cells, base
//     stations, reservation engine and policies the shards reuse.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "core/hex_system.h"
#include "probes.h"
#include "sim/sharded/executor.h"

namespace perfbench {
namespace {

using pabr::sim::sharded::ShardedConfig;
using pabr::sim::sharded::ShardedExecutor;
using pabr::sim::sharded::ShardedResult;

constexpr int kShards = 4;
constexpr double kHorizon = 1500.0;       ///< timed simulated seconds
constexpr double kReferenceHorizon = 100.0;
constexpr int kSliceJobs = 200;  ///< >= 200 so p95 has 10 beyond
constexpr int kSliceSlots = 8;   ///< simulated length of one slice job
constexpr int kSetupJobs = 40;
constexpr double kHexProbeHorizon = 300.0;

ShardedConfig torus_config(std::uint64_t seed, double horizon) {
  ShardedConfig cfg;
  cfg.system.rows = 32;
  cfg.system.cols = 32;
  cfg.system.wrap = true;
  cfg.system.policy = pabr::admission::PolicyKind::kAc2;
  cfg.system.arrival_rate_per_cell = 0.5;
  cfg.system.seed = seed;
  cfg.shards = kShards;
  cfg.duration_s = horizon;
  return cfg;
}

struct TorusRun {
  RunRecord rec;
  ShardedResult result;
};

TorusRun timed_run(const ShardedConfig& cfg) {
  TorusRun out;
  const auto t0 = Clock::now();
  out.result = ShardedExecutor(cfg).run();
  out.rec.wall_s = seconds_since(t0);
  out.rec.sim_s = cfg.duration_s;
  out.rec.events = out.result.events;
  out.rec.digest = out.result.digest;
  out.rec.pcb = out.result.status.pcb;
  out.rec.phd = out.result.status.phd;
  out.rec.n_calc = out.result.status.n_calc;
  out.rec.traced = cfg.system.telemetry.enabled;
  return out;
}

/// Cold-start executor jobs. Zero-horizon jobs (construction, shard
/// set-up, thread start and join; no slot runs) give the set-up samples;
/// kSliceSlots-slot jobs give the slice samples. Every job of one horizon
/// must end in the same digest (`digest`, 0 until the first job).
void cold_jobs(std::uint64_t seed, double horizon, int jobs, double scale,
               std::vector<double>& samples, std::uint64_t& digest,
               Report& report) {
  const ShardedConfig cfg = torus_config(seed, horizon);
  for (int j = 0; j < jobs; ++j) {
    const auto t0 = Clock::now();
    ShardedExecutor exec(cfg);
    const ShardedResult r = exec.run();
    samples.push_back(seconds_since(t0) * scale);
    if (digest == 0) digest = r.digest;
    if (r.digest != digest) {
      report.errors.push_back("cold job digest " + hex64(r.digest) + " != " +
                              hex64(digest));
    }
  }
}

double slot_length(std::uint64_t seed) {
  return ShardedExecutor(torus_config(seed, 1.0)).slot_length();
}

void trace_layers(const Options& opt, Report& report) {
  Layers& L = report.layers;
  // Telemetry overhead from two alternating untraced / traced pairs; the
  // last traced run's registries give the counters.
  ShardedConfig cfg = torus_config(opt.seed, kHorizon);
  ShardedConfig traced_cfg = cfg;
  traced_cfg.system.telemetry.enabled = true;
  traced_cfg.system.telemetry.trace = false;
  std::vector<double> off;
  std::vector<double> on;
  TorusRun untraced;
  TorusRun traced;
  for (int pair = 0; pair < 2; ++pair) {
    untraced = timed_run(cfg);
    traced = timed_run(traced_cfg);
    report.runs.push_back(untraced.rec);
    report.runs.push_back(traced.rec);
    off.push_back(untraced.rec.events_per_s());
    on.push_back(traced.rec.events_per_s());
  }

  ShardedConfig serial = torus_config(opt.seed, kHorizon);
  serial.shards = 1;
  const TorusRun one = timed_run(serial);
  if (one.rec.digest != untraced.rec.digest) {
    report.errors.push_back("1-shard digest " + hex64(one.rec.digest) +
                            " != 4-shard digest " +
                            hex64(untraced.rec.digest));
  }
  const double eps4 = untraced.rec.events_per_s();
  const double eps1 = one.rec.events_per_s();
  const double slots = std::ceil(kHorizon / slot_length(opt.seed));
  report.notes.emplace_back("sharded.speedup",
                            std::to_string(eps4 / eps1) + " x (" +
                                std::to_string(kShards) +
                                " shards vs the 1-shard run, n=1 pair)");
  report.notes.emplace_back("sharded.parallel_efficiency",
                            std::to_string(eps4 / eps1 / kShards) +
                                " (speedup / " + std::to_string(kShards) +
                                ")");
  report.notes.emplace_back("sharded.slots",
                            std::to_string(static_cast<long long>(slots)) +
                                " slots of the timed horizon");

  L.value("core.events", "count", static_cast<double>(traced.rec.events), 1);
  // run() reports the population at the horizon only.
  const double active = static_cast<double>(traced.result.active_connections);
  L.value("core.active_connections_mean", "count", active, 1);

  // One future event per mobile plus one arrival tick per cell.
  const auto depth = static_cast<std::size_t>(active) + 32 * 32;
  replay_layers(L, depth, depth / kShards, 32 * 32 / kShards, opt.seed);
  // admission.ns is summed over the shards' threads: a share of thread time.
  counter_layers(L, traced.result.telemetry,
                 traced.rec.wall_s * 1e9 * kShards);
  // The hex engines have no signalling-message model: they count none.
  backhaul_layers(L, traced.result.status);
  L.value("telemetry.overhead_pct", "%", overhead_pct(off, on),
          off.size() + on.size());

  // Clone-based probes on the serial hex engine of the same grid.
  pabr::core::HexCellularSystem hex(torus_config(opt.seed, 1.0).system);
  const int points = 3;
  double max_diff = 0.0;
  std::uint64_t violations = 0;
  for (int k = 1; k <= points; ++k) {
    hex.run_until(kHexProbeHorizon * k / points);
    const OracleResult o = probe_clone(hex, L);
    max_diff = std::max(max_diff, o.max_abs_diff);
    violations += o.violations;
    if (!o.ok()) report.errors.push_back("hex clone oracle: " + o.error);
  }
  L.value("reservation.max_abs_diff", "BU", max_diff, points);
  L.value("audit.violations", "count", static_cast<double>(violations),
          points);
}

/// Short run at the reference seed, with the per-shard invariant audit at
/// every barrier (audits read state only).
void reference_gate(Report& report) {
  ShardedConfig ref = torus_config(kReferenceSeed, kReferenceHorizon);
  ref.audit_at_barriers = true;
  try {
    report.reference = timed_run(ref).rec;
  } catch (const std::exception& e) {
    report.reference.oracles_ok = false;
    report.reference.oracle_error = e.what();
    report.errors.push_back(std::string("barrier audit: ") + e.what());
  }
}

}  // namespace

bool run_torus(const Options& opt, Report& report) {
  if (opt.workload != "torus_sharded") return false;

  if (opt.trace) {
    reference_gate(report);
    trace_layers(opt, report);
    return true;
  }
  const ShardedConfig cfg = torus_config(opt.seed, kHorizon);
  // Cold jobs first, on a fresh heap: after the long runs they are slower
  // and less repeatable; the long runs do not mind the order.
  const auto t0 = Clock::now();
  std::uint64_t setup_digest = 0;
  std::uint64_t slice_digest = 0;
  cold_jobs(opt.seed, kSliceSlots * slot_length(opt.seed), kSliceJobs, 1e3,
            report.slice_ms, slice_digest, report);
  cold_jobs(opt.seed, 0.0, kSetupJobs, 1.0, report.setup_s, setup_digest,
            report);
  reference_gate(report);
  do {
    report.runs.push_back(timed_run(cfg).rec);
  } while (report.runs.size() < 3 ||
           (seconds_since(t0) < opt.seconds && report.runs.size() < 50));
  return true;
}

}  // namespace perfbench
