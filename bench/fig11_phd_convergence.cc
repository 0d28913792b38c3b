// Figure 11: cumulative P_HD vs time at cells <5> and <6> from a cold
// start (same run configuration as Fig. 10).
//
// Paper's observations this should reproduce: P_HD may peak above the
// 0.01 target early (no cached quadruplets, T_est still adapting from
// T_start = 1 s) but settles to/below the target as history accumulates.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double duration = 2000.0;
  cli::Parser cli("fig11_phd_convergence",
                  "P_HD vs time at cells <5>/<6> (paper Fig. 11)");
  bench::add_common_flags(cli, opts);
  cli.add_double("duration", &duration, "simulated seconds from cold start",
                 0.0);
  if (!cli.parse(argc, argv)) return 1;
  if (opts.full) duration = std::max(duration, 4000.0);

  bench::print_banner(
      "Figure 11 — P_HD convergence from cold start (AC3, L = 300, "
      "R_vo = 1.0, high mobility)");

  core::StationaryParams p;
  p.offered_load = 300.0;
  p.voice_ratio = 1.0;
  p.mobility = core::Mobility::kHigh;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = opts.seed;
  core::SystemConfig cfg = core::stationary_config(p);
  cfg.traced_cells = {4, 5};

  core::CellularSystem sys(cfg);
  sys.run_for(duration);

  csv::Writer csv(opts.csv_path);
  csv.header({"cell", "t", "phd"});

  core::TablePrinter table({"t (s)", "P_HD cell<5>", "P_HD cell<6>"},
                           {9, 13, 13});
  table.print_header();
  const core::CellTrace* c5 = sys.trace(4);
  const core::CellTrace* c6 = sys.trace(5);
  const int samples = 40;
  for (int i = 1; i <= samples; ++i) {
    const double t =
        duration * static_cast<double>(i) / static_cast<double>(samples);
    const double p5 = c5->phd.value_at(t, 0.0);
    const double p6 = c6->phd.value_at(t, 0.0);
    table.print_row({core::TablePrinter::fixed(t, 0),
                     core::TablePrinter::prob(p5),
                     core::TablePrinter::prob(p6)});
    csv.row_values(5, t, p5);
    csv.row_values(6, t, p6);
  }
  table.print_rule();
  std::cout << "final cumulative P_HD: cell<5> = "
            << core::TablePrinter::prob(sys.cell_metrics(4).phd.value())
            << ", cell<6> = "
            << core::TablePrinter::prob(sys.cell_metrics(5).phd.value())
            << "  (target 0.01)\n";
  return 0;
}
