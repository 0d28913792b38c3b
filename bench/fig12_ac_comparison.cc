// Figure 12: P_CB and P_HD vs offered load for AC1 / AC2 / AC3 under high
// user mobility, (a) R_vo = 1.0 and (b) R_vo = 0.5.
//
// Paper's observations this should reproduce:
//   * the three schemes have nearly identical P_CB (AC1 slightly lowest);
//   * AC2 and AC3 bound P_HD at the target; AC1 exceeds it when
//     over-loaded (L > ~150) but stays below ~0.02 even at L = 300.
//
// Each load point is an independent run; --threads N fans each sweep
// over a pool with byte-identical output (core::sweep_loads).
#include <chrono>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  cli::Parser cli("fig12_ac_comparison",
                  "P_CB/P_HD vs load for AC1/AC2/AC3 (paper Fig. 12)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Figure 12 — admission-control comparison "
                      "(high mobility)");
  csv::Writer csv(opts.csv_path);
  csv.header({"voice_ratio", "policy", "load", "pcb", "phd"});
  bench::JsonReport json("fig12_ac_comparison", opts);
  json.columns({"voice_ratio", "policy", "load", "pcb", "phd"});

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  const admission::PolicyKind kinds[] = {admission::PolicyKind::kAc1,
                                         admission::PolicyKind::kAc2,
                                         admission::PolicyKind::kAc3};
  for (const double rvo : {1.0, 0.5}) {
    std::cout << "\n-- R_vo = " << core::TablePrinter::fixed(rvo, 1)
              << " --\n";
    core::TablePrinter table({"policy", "load", "P_CB", "P_HD"},
                             {7, 6, 10, 10});
    table.print_header();
    for (const auto kind : kinds) {
      const auto points = core::sweep_loads(
          core::paper_load_grid(),
          [&](double load) {
            core::StationaryParams p;
            p.offered_load = load;
            p.voice_ratio = rvo;
            p.mobility = core::Mobility::kHigh;
            p.policy = kind;
            p.seed = opts.seed;
            core::SystemConfig cfg = core::stationary_config(p);
            cfg.telemetry = opts.telemetry_config();
            return cfg;
          },
          opts.plan(), opts.threads);
      for (const auto& pt : points) {
        const auto& s = pt.result.status;
        if (opts.telemetry_requested()) {
          snapshots.push_back(pt.result.telemetry);
          trace_streams.push_back(pt.result.trace);
          trace_rotated += pt.result.trace_rotated_out;
        }
        table.print_row({admission::policy_kind_name(kind),
                         core::TablePrinter::fixed(pt.offered_load, 0),
                         core::TablePrinter::prob(s.pcb),
                         core::TablePrinter::prob(s.phd)});
        csv.row_values(rvo, admission::policy_kind_name(kind),
                       pt.offered_load, s.pcb, s.phd);
        json.row({csv::Writer::format(rvo),
                  admission::policy_kind_name(kind),
                  csv::Writer::format(pt.offered_load),
                  csv::Writer::format(s.pcb), csv::Writer::format(s.phd)});
        br_calculations += s.br_calculations;
      }
      table.print_rule();
    }
  }

  json.counter("wall_seconds",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
  json.counter("br_calculations", static_cast<double>(br_calculations));
  json.counter("threads", opts.threads);
  if (!snapshots.empty()) {
    json.metrics(telemetry::merge_snapshots(snapshots));
  }
  json.write();
  bench::write_bench_trace("fig12_ac_comparison", opts, trace_streams,
                           trace_rotated);
  return 0;
}
