// Cross-validation: the simulator's static-reservation results vs the
// Hong & Rappaport guard-channel Markov model (the paper's ref. [5],
// implemented in src/analysis). Voice-only traffic so both sides model
// identical bandwidth units.
//
// The analytic chain assumes exponential cell-residence times; the road
// simulator's residences are distance/speed (deterministic per mobile) —
// exactly the assumption the paper §6 criticizes in [10]. Expect the
// curves to agree on P_CB (dominated by load, insensitive to the
// residence shape) and to diverge on P_HD where the exponential
// approximation bends.
#include "bench_common.h"

#include "analysis/guard_channel.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double g = 10.0;
  cli::Parser cli("analytic_vs_sim",
                  "static reservation: simulator vs guard-channel theory");
  bench::add_common_flags(cli, opts);
  cli.add_double("g", &g, "guard bandwidth (BUs)", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Cross-validation — simulator vs Hong/Rappaport "
                      "guard-channel model (ref. [5])");
  csv::Writer csv(opts.csv_path);
  csv.header({"load", "sim_pcb", "analytic_pcb", "sim_phd", "analytic_phd",
              "analytic_lambda_h"});

  core::TablePrinter table({"load", "P_CB sim", "P_CB theory", "P_HD sim",
                            "P_HD theory", "lam_h/s"},
                           {6, 10, 11, 10, 11, 8});
  table.print_header();
  for (const double load : core::paper_load_grid()) {
    core::StationaryParams sp;
    sp.offered_load = load;
    sp.voice_ratio = 1.0;
    sp.mobility = core::Mobility::kHigh;
    sp.policy = admission::PolicyKind::kStatic;
    sp.static_g = g;
    sp.seed = opts.seed;
    const auto sim = core::run_system(core::stationary_config(sp),
                                      opts.plan());

    analysis::GuardChannelParams ap;
    ap.guard_bu = g;
    ap.lambda_new = load / 120.0;
    const auto theory = analysis::evaluate(ap);

    table.print_row({core::TablePrinter::fixed(load, 0),
                     core::TablePrinter::prob(sim.status.pcb),
                     core::TablePrinter::prob(theory.pcb),
                     core::TablePrinter::prob(sim.status.phd),
                     core::TablePrinter::prob(theory.phd),
                     core::TablePrinter::fixed(theory.lambda_h, 2)});
    csv.row_values(load, sim.status.pcb, theory.pcb, sim.status.phd,
                   theory.phd, theory.lambda_h);
  }
  table.print_rule();
  return 0;
}
