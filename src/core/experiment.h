// Experiment harness shared by the bench binaries: run scenarios with a
// warm-up + measurement phase, sweep offered loads, and print
// paper-formatted tables.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/system.h"

namespace pabr::core {

/// Run durations: the system warms up (filling estimation functions and
/// adapting T_est, as the paper's runs do from t = 0), metrics are then
/// reset and measured over the second phase.
struct RunPlan {
  sim::Duration warmup_s = 2000.0;
  sim::Duration measure_s = 8000.0;
  bool reset_after_warmup = true;
  /// Checkpoint/resume (DESIGN.md §13). When `checkpoint_every_s` > 0
  /// the run saves its complete state to `checkpoint_path` at every
  /// multiple of the cadence (overwriting, so the file always holds the
  /// newest checkpoint). When `resume_from` names a snapshot file the
  /// system is loaded from it instead of built fresh — the snapshot
  /// carries its own config — and the plan's phases continue from the
  /// saved clock: the warm-up reset still fires at `warmup_s` if the
  /// snapshot predates it, and is skipped if it was already applied.
  sim::Duration checkpoint_every_s = 0.0;
  std::string checkpoint_path;
  std::string resume_from;
};

struct RunResult {
  SystemStatus status;
  std::vector<CellStatus> cells;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  /// Telemetry collected over the measurement phase (empty when telemetry
  /// is disabled). The trace is drained from the system's ring so
  /// replicated runs can be merged deterministically
  /// (telemetry::write_merged_trace keyed by seed index).
  telemetry::MetricsSnapshot telemetry;
  std::vector<telemetry::TraceRecord> trace;
  std::uint64_t trace_rotated_out = 0;
  /// End-of-run trajectory digest (audit/differential.h) — the value the
  /// I10 checkpoint/resume contract compares.
  std::uint64_t digest = 0;
};

/// Builds the system from `config`, executes the plan, and snapshots all
/// metrics.
RunResult run_system(const SystemConfig& config, const RunPlan& plan);

/// Convenience sweep: one run per offered load value. `threads > 1` fans
/// the points over a thread pool (each run owns its own CellularSystem);
/// results are collected by point index, so the sweep is byte-identical
/// to the sequential one whatever the thread count (sim/parallel.h).
struct SweepPoint {
  double offered_load = 0.0;
  RunResult result;
};
std::vector<SweepPoint> sweep_loads(
    const std::vector<double>& loads,
    const std::function<SystemConfig(double)>& config_for_load,
    const RunPlan& plan, int threads = 1);

/// A metric replicated over independent seeds: mean and the 95% normal-
/// approximation confidence half-width.
struct Replicated {
  double mean = 0.0;
  double ci95 = 0.0;
  std::vector<double> samples;
};

/// Aggregate of `n` independent replications of one scenario.
struct ReplicatedResult {
  Replicated pcb;
  Replicated phd;
  Replicated br_avg;
  Replicated n_calc;
  std::vector<RunResult> runs;
};

/// Runs the scenario under `n_seeds` different seeds (config.seed + i)
/// and aggregates the headline metrics — use when a single sample is too
/// noisy to compare schemes (the paper reports single runs; CIs make the
/// reproduction's comparisons defensible). `threads > 1` fans the
/// replications over a thread pool; per-seed samples and aggregates are
/// byte-identical to the sequential run (index-ordered collection).
ReplicatedResult run_replicated(const SystemConfig& config,
                                const RunPlan& plan, int n_seeds,
                                int threads = 1);

/// Fixed-width console table writer used by the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths);

  void print_header() const;
  void print_row(const std::vector<std::string>& cells) const;
  void print_rule() const;

  /// Probability formatting like the paper's tables (e.g. "6.53e-3",
  /// or "0" for an exact zero).
  static std::string prob(double p);
  static std::string fixed(double v, int decimals);
  static std::string integer(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// The offered-load grid the paper's sweeps cover (60..300).
std::vector<double> paper_load_grid();

}  // namespace pabr::core
