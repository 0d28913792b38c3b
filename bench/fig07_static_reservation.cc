// Figure 7: P_CB and P_HD vs offered load under STATIC reservation
// (G = 10 BUs permanently set aside), for R_vo in {1.0, 0.8, 0.5} and
// (a) high / (b) low user mobility.
//
// Paper's observations this should reproduce:
//   * G = 10 suffices (P_HD < 0.01) for R_vo = 1.0 but NOT for R_vo = 0.5;
//   * for R_vo = 0.8 it suffices only under low mobility / low load;
//   * for R_vo = 1.0 at light load it over-reserves (P_HD << target).
//
// Each load point is an independent run; --threads N fans each sweep
// over a pool with byte-identical output (core::sweep_loads).
#include <chrono>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double g = 10.0;
  cli::Parser cli("fig07_static_reservation",
                  "P_CB/P_HD vs load, static reservation (paper Fig. 7)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  cli.add_double("g", &g, "statically reserved BUs per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Figure 7 — static reservation, G = " +
                      core::TablePrinter::fixed(g, 0) + " BU");
  csv::Writer csv(opts.csv_path);
  csv.header({"mobility", "voice_ratio", "load", "pcb", "phd"});
  bench::JsonReport json("fig07_static_reservation", opts);
  json.columns({"mobility", "voice_ratio", "load", "pcb", "phd"});

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  core::TablePrinter table({"mobility", "R_vo", "load", "P_CB", "P_HD"},
                           {8, 6, 6, 10, 10});
  for (const core::Mobility mob :
       {core::Mobility::kHigh, core::Mobility::kLow}) {
    std::cout << "\n-- " << core::mobility_name(mob) << " user mobility ("
              << (mob == core::Mobility::kHigh ? "[80,120]" : "[40,60]")
              << " km/h) --\n";
    table.print_header();
    for (const double rvo : {1.0, 0.8, 0.5}) {
      const auto points = core::sweep_loads(
          core::paper_load_grid(),
          [&](double load) {
            core::StationaryParams p;
            p.offered_load = load;
            p.voice_ratio = rvo;
            p.mobility = mob;
            p.policy = admission::PolicyKind::kStatic;
            p.static_g = g;
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
                         core::TablePrinter::prob(s.phd)});
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
  bench::write_bench_trace("fig07_static_reservation", opts, trace_streams,
                           trace_rotated);
  return 0;
}
