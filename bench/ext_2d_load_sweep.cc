// Extension experiment (§7 future work): the Fig. 8/12/13 sweeps
// transplanted to a two-dimensional hexagonal system (4x6 torus).
//
// Questions the paper leaves open, answered here:
//   * does AC3 still bound P_HD at the target when each cell has SIX
//     hand-in neighbours instead of two?
//   * §5.2.3's warning — "the complexity increase could be larger for
//     two-dimensional cellular structures" — how much larger? (AC2 now
//     costs 7 B_r computations per admission; AC3's selective
//     participation is where the savings compound.)
//
// Each (policy, load) point is one independent HexCellularSystem, so
// --threads N fans the 12 points over a pool; rows are printed in the
// original order afterwards, byte-identical to the sequential run.
#include <chrono>

#include "bench_common.h"
#include "core/hex_system.h"
#include "core/metrics.h"
#include "sim/parallel.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  cli::Parser cli("ext_2d_load_sweep",
                  "2-D hex-grid load sweep: AC1/AC2/AC3/static (§7)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Extension — 2-D hexagonal system (4x6 torus, "
                      "R_vo = 1.0, vehicular mobility)");
  csv::Writer csv(opts.csv_path);
  csv.header({"policy", "load", "pcb", "phd", "n_calc"});
  bench::JsonReport json("ext_2d_load_sweep", opts);
  json.columns({"policy", "load", "pcb", "phd", "n_calc"});

  const admission::PolicyKind kinds[] = {
      admission::PolicyKind::kStatic, admission::PolicyKind::kAc1,
      admission::PolicyKind::kAc2, admission::PolicyKind::kAc3};
  const double loads[] = {100.0, 180.0, 260.0};

  struct Job {
    admission::PolicyKind kind;
    double load;
  };
  std::vector<Job> jobs;
  for (const auto kind : kinds) {
    for (const double load : loads) jobs.push_back({kind, load});
  }

  struct JobResult {
    core::SystemStatus status;
    telemetry::MetricsSnapshot telemetry;
    std::vector<telemetry::TraceRecord> trace;
    std::uint64_t trace_rotated_out = 0;
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = sim::parallel_map<JobResult>(
      opts.threads, jobs.size(), [&](std::size_t i) {
        core::HexSystemConfig cfg;
        cfg.policy = jobs[i].kind;
        cfg.static_g = 10.0;
        cfg.voice_ratio = 1.0;
        cfg.set_offered_load(jobs[i].load);
        cfg.seed = opts.seed;
        cfg.telemetry = opts.telemetry_config();

        // 24 cells yield ~2.4x the per-second samples of the 1-D ring, so
        // shorter runs reach the same confidence.
        core::HexCellularSystem sys(cfg);
        sys.run_for(opts.full ? 2000.0 : 600.0);
        sys.reset_metrics();
        sys.run_for(opts.full ? 8000.0 : 1500.0);
        JobResult out;
        out.status = sys.system_status();
        if (sys.telemetry().enabled()) {
          out.telemetry = sys.telemetry_snapshot();
          out.trace_rotated_out = sys.telemetry().buffer().rotated_out();
          out.trace = sys.telemetry().drain_trace();
        }
        return out;
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;
  core::TablePrinter table(
      {"policy", "load", "P_CB", "P_HD", "N_calc", "target"},
      {7, 6, 10, 10, 7, 7});
  table.print_header();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& s = results[i].status;
    if (opts.telemetry_requested()) {
      snapshots.push_back(results[i].telemetry);
      trace_streams.push_back(results[i].trace);
      trace_rotated += results[i].trace_rotated_out;
    }
    const char* name = admission::policy_kind_name(jobs[i].kind);
    table.print_row({name, core::TablePrinter::fixed(jobs[i].load, 0),
                     core::TablePrinter::prob(s.pcb),
                     core::TablePrinter::prob(s.phd),
                     core::TablePrinter::fixed(s.n_calc, 2),
                     s.phd <= 0.0125 ? "ok" : "MISS"});
    csv.row_values(name, jobs[i].load, s.pcb, s.phd, s.n_calc);
    json.row({name, csv::Writer::format(jobs[i].load),
              csv::Writer::format(s.pcb), csv::Writer::format(s.phd),
              csv::Writer::format(s.n_calc)});
    br_calculations += s.br_calculations;
    if (i % 3 == 2) table.print_rule();
  }

  json.counter("wall_seconds", wall);
  json.counter("br_calculations", static_cast<double>(br_calculations));
  json.counter("threads", opts.threads);
  if (!snapshots.empty()) {
    json.metrics(telemetry::merge_snapshots(snapshots));
  }
  json.write();
  bench::write_bench_trace("ext_2d_load_sweep", opts, trace_streams,
                           trace_rotated);

  std::cout << "\nExpected shape: the predictive/adaptive machinery carries "
               "to 2-D unchanged\n(AC3 keeps P_HD at target); AC2's cost "
               "grows from 3 to 7 calculations per\nadmission while AC3 "
               "stays a fraction of that — §5.2.3's prediction, "
               "quantified.\n";
  return 0;
}
