// Figure 10: T_est and B_r vs time in cells <5> and <6>, from a cold start
// (t = 0) with offered load 300, R_vo = 1.0, high mobility, AC3.
//
// Paper's observations this should reproduce: T_est climbs from T_start =
// 1 s as drops occur and then oscillates (each +1 s step corresponds to a
// hand-off drop); B_r fluctuates between over- and under-reservation,
// tracking T_est and the neighbours' traffic.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double duration = 2000.0;
  double load = 300.0;
  cli::Parser cli("fig10_test_window_trace",
                  "T_est and B_r vs time, cells <5>/<6> (paper Fig. 10)");
  bench::add_common_flags(cli, opts);
  cli.add_double("duration", &duration, "simulated seconds from cold start",
                 0.0);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;
  if (opts.full) duration = std::max(duration, 2000.0);

  bench::print_banner(
      "Figure 10 — T_est / B_r traces from cold start (AC3, L = " +
      core::TablePrinter::fixed(load, 0) + ", R_vo = 1.0, high mobility)");

  core::StationaryParams p;
  p.offered_load = load;
  p.voice_ratio = 1.0;
  p.mobility = core::Mobility::kHigh;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = opts.seed;
  core::SystemConfig cfg = core::stationary_config(p);
  cfg.traced_cells = {4, 5};  // the paper's cells <5> and <6>

  core::CellularSystem sys(cfg);
  sys.run_for(duration);

  csv::Writer csv(opts.csv_path);
  csv.header({"cell", "series", "t", "value"});

  for (const geom::CellId c : {4, 5}) {
    const core::CellTrace* tr = sys.trace(c);
    std::cout << "\n-- cell <" << (c + 1) << "> --\n";
    core::TablePrinter table({"t (s)", "T_est (s)", "B_r (BU)"},
                             {9, 10, 9});
    table.print_header();
    // Sample both staircases on a common, thinned grid.
    const int samples = 40;
    for (int i = 1; i <= samples; ++i) {
      const double t =
          duration * static_cast<double>(i) / static_cast<double>(samples);
      const double t_est = tr->t_est.value_at(t, cfg.t_start);
      const double br = tr->br.value_at(t, 0.0);
      table.print_row({core::TablePrinter::fixed(t, 0),
                       core::TablePrinter::fixed(t_est, 0),
                       core::TablePrinter::fixed(br, 2)});
      csv.row_values(c + 1, "t_est", t, t_est);
      csv.row_values(c + 1, "br", t, br);
    }
    table.print_rule();
    std::cout << "T_est samples recorded: " << tr->t_est.points().size()
              << ", B_r updates: " << tr->br.points().size() << "\n";
  }
  return 0;
}
