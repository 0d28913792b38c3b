// Figure 4 (illustrative in the paper, regenerated here from live data):
// the footprint of a cell's hand-off estimation function — for mobiles
// that entered from a given previous cell, the scatter of (sojourn time,
// next cell) over the cached quadruplets.
//
// On the 1-D ring with bidirectional traffic the expected footprint for
// prev = left neighbour has two bands: "continue right" events clustered
// at the full-cell transit time and "turned around" events spread at
// shorter sojourns (here mobiles never turn, so the second band collapses
// — runs with --low-mobility show the transit-time band shifting right,
// the paper's "farthest cell has the largest sojourns" observation).
#include "bench_common.h"

#include "core/system.h"
#include "util/ascii_plot.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  bool low_mobility = false;
  double duration = 1500.0;
  cli::Parser cli("fig04_footprint",
                  "hand-off estimation function footprint (paper Fig. 4)");
  bench::add_common_flags(cli, opts);
  cli.add_bool("low-mobility", &low_mobility, "use the 40-60 km/h range");
  cli.add_double("duration", &duration, "seconds of history to collect",
                 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Figure 4 — footprint of F_HOE at cell <5>, "
                      "prev = cell <4>");

  core::StationaryParams p;
  p.offered_load = 200.0;
  p.voice_ratio = 1.0;
  p.mobility = low_mobility ? core::Mobility::kLow : core::Mobility::kHigh;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = opts.seed;
  core::CellularSystem sys(core::stationary_config(p));
  sys.run_for(duration);

  // Cell <5> is index 4; its left neighbour <4> is index 3.
  const auto& est = sys.base_station(4).estimator();
  csv::Writer csv(opts.csv_path);
  csv.header({"prev", "next", "sojourn_s", "weight"});

  for (const geom::CellId prev : {3, 5, 4}) {  // left, right, started-here
    const auto fp = est.footprint(sys.now(), prev);
    const char* kind = prev == 4 ? "started in cell <5>"
                      : prev == 3 ? "entered from cell <4>"
                                  : "entered from cell <6>";
    std::cout << "\nprev = " << kind << ": " << fp.size()
              << " cached quadruplets\n";
    if (fp.empty()) continue;

    std::vector<plot::Point> pts;
    for (const auto& q : fp) {
      // y = next cell id (1-based), x = sojourn; glyph encodes direction.
      pts.push_back(plot::Point{q.sojourn, static_cast<double>(q.next + 1),
                                q.next == 5 ? '>' : '<'});
      csv.row_values(prev + 1, q.next + 1, q.sojourn, q.weight);
    }
    plot::Canvas canvas;
    canvas.height = 7;
    canvas.x_label = "sojourn time T_soj (s)";
    canvas.y_label = "next cell index ('>' = cell <6>, '<' = cell <4>)";
    std::cout << plot::scatter(pts, canvas);
  }
  std::cout << "\nReading the footprint (paper §3.1): for through-traffic "
               "the sojourn\nclusters at cell-transit time; started-here "
               "mobiles show sojourns spread\nfrom 0 to the transit time "
               "(uniform starting position).\n";
  return 0;
}
