// Ablation (paper §7 future work): route knowledge from ITS/GPS. "Then,
// the mobility estimation function is used to estimate the sojourn time
// of a mobile only because the next cell of the mobile is known already."
//
// For a fraction f of mobiles the network knows the travel direction, so
// the expected hand-in bandwidth concentrates on the true next cell
// instead of being split by the estimated direction distribution. This
// bench sweeps f and reports P_CB / P_HD / average reservation: with
// perfect route knowledge the same P_HD target is met with LESS reserved
// bandwidth (no reservation wasted on cells the mobile will never enter),
// which shows up as equal-or-lower P_CB.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 300.0;
  cli::Parser cli("ablation_gps_routes",
                  "fraction of route-known (ITS/GPS) mobiles (paper §7)");
  bench::add_common_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Ablation — ITS/GPS route knowledge (§7 extension)");
  csv::Writer csv(opts.csv_path);
  csv.header({"known_fraction", "pcb", "phd", "br_avg", "bu_avg"});

  core::TablePrinter table(
      {"known routes", "P_CB", "P_HD", "avg B_r", "avg B_u"},
      {12, 10, 10, 8, 8});
  table.print_header();
  for (const double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = 1.0;
    p.mobility = core::Mobility::kHigh;
    p.policy = admission::PolicyKind::kAc3;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.known_route_fraction = f;
    const auto r = core::run_system(cfg, opts.plan());
    table.print_row({core::TablePrinter::fixed(f * 100.0, 0) + "%",
                     core::TablePrinter::prob(r.status.pcb),
                     core::TablePrinter::prob(r.status.phd),
                     core::TablePrinter::fixed(r.status.br_avg, 2),
                     core::TablePrinter::fixed(r.status.bu_avg, 2)});
    csv.row_values(f, r.status.pcb, r.status.phd, r.status.br_avg,
                   r.status.bu_avg);
  }
  table.print_rule();
  std::cout << "\nExpected shape: P_HD stays bounded at every fraction; as "
               "route knowledge\ngrows the reservation targets the true "
               "next cell, so B_r (and with it P_CB)\ndrifts down.\n";
  return 0;
}
