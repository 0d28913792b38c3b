// Figure 8: P_CB and P_HD vs offered load under AC3 for R_vo in
// {1.0, 0.8, 0.5} and (a) high / (b) low user mobility.
//
// Paper's headline result: P_HD <= P_HD,target (= 0.01) across the ENTIRE
// load range 60..300 irrespective of voice ratio and mobility, with the
// P_CB/P_HD gap narrowing as load decreases (less bandwidth reserved).
//
// Each load point is an independent run; --threads N fans each sweep
// over a pool with byte-identical output (core::sweep_loads).
#include <chrono>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  cli::Parser cli("fig08_ac3_load_sweep",
                  "P_CB/P_HD vs load under AC3 (paper Fig. 8)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Figure 8 — predictive/adaptive reservation, AC3");
  csv::Writer csv(opts.csv_path);
  csv.header({"mobility", "voice_ratio", "load", "pcb", "phd"});
  bench::JsonReport json("fig08_ac3_load_sweep", opts);
  json.columns({"mobility", "voice_ratio", "load", "pcb", "phd"});

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  core::TablePrinter table(
      {"mobility", "R_vo", "load", "P_CB", "P_HD", "target met"},
      {8, 6, 6, 10, 10, 11});
  for (const core::Mobility mob :
       {core::Mobility::kHigh, core::Mobility::kLow}) {
    std::cout << "\n-- " << core::mobility_name(mob)
              << " user mobility --\n";
    table.print_header();
    for (const double rvo : {1.0, 0.8, 0.5}) {
      const auto points = core::sweep_loads(
          core::paper_load_grid(),
          [&](double load) {
            core::StationaryParams p;
            p.offered_load = load;
            p.voice_ratio = rvo;
            p.mobility = mob;
            p.policy = admission::PolicyKind::kAc3;
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
        table.print_row({core::mobility_name(mob),
                         core::TablePrinter::fixed(rvo, 1),
                         core::TablePrinter::fixed(pt.offered_load, 0),
                         core::TablePrinter::prob(s.pcb),
                         core::TablePrinter::prob(s.phd),
                         s.phd <= 0.0125 ? "yes" : "NO"});
        csv.row_values(core::mobility_name(mob), rvo, pt.offered_load,
                       s.pcb, s.phd);
        json.row({core::mobility_name(mob), csv::Writer::format(rvo),
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
  bench::write_bench_trace("fig08_ac3_load_sweep", opts, trace_streams,
                           trace_rotated);
  return 0;
}
