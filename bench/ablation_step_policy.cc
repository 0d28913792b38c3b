// Ablation (paper §4.2): step-size rules for the T_est controller. The
// paper experimented with additive (1,2,3,...) and multiplicative
// (1,2,4,...) step growth for consecutive increments/decrements and
// reports they "cause over-reactions, and make the reserved bandwidth
// fluctuate severely between over-reservation and under-reservation";
// fixed 1-s steps were kept. This bench quantifies that claim: same
// workload, three step policies, reporting P_CB / P_HD and the
// fluctuation (mean |step|, std dev) of the traced T_est and B_r signals.
#include <cmath>

#include "bench_common.h"

#include "core/system.h"

namespace {

struct Fluctuation {
  double mean = 0.0;
  double stddev = 0.0;
  double max = 0.0;
};

Fluctuation fluctuation(const pabr::sim::Series& s) {
  Fluctuation f;
  const auto& pts = s.points();
  if (pts.empty()) return f;
  double sum = 0.0, sum2 = 0.0;
  for (const auto& p : pts) {
    sum += p.v;
    sum2 += p.v * p.v;
    f.max = std::max(f.max, p.v);
  }
  const double n = static_cast<double>(pts.size());
  f.mean = sum / n;
  f.stddev = std::sqrt(std::max(0.0, sum2 / n - f.mean * f.mean));
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 300.0;
  cli::Parser cli("ablation_step_policy",
                  "T_est step-size rules: fixed vs additive vs "
                  "multiplicative (paper §4.2)");
  bench::add_common_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Ablation — T_est adjustment step sizes (§4.2)");
  csv::Writer csv(opts.csv_path);
  csv.header({"policy", "pcb", "phd", "t_est_mean", "t_est_std", "t_est_max",
              "br_std"});

  core::TablePrinter table({"step rule", "P_CB", "P_HD", "T_est avg",
                            "T_est sd", "T_est max", "B_r sd"},
                           {15, 10, 10, 10, 9, 10, 8});
  table.print_header();
  for (const auto policy :
       {reservation::StepPolicy::kFixed, reservation::StepPolicy::kAdditive,
        reservation::StepPolicy::kMultiplicative}) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = 1.0;
    p.mobility = core::Mobility::kHigh;
    p.policy = admission::PolicyKind::kAc3;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.t_est_step = policy;
    cfg.traced_cells = {4};

    core::CellularSystem sys(cfg);
    const auto plan = opts.plan();
    sys.run_for(plan.warmup_s);
    sys.reset_metrics();
    sys.run_for(plan.measure_s);

    const auto s = sys.system_status();
    const auto t_est_f = fluctuation(sys.trace(4)->t_est);
    const auto br_f = fluctuation(sys.trace(4)->br);
    table.print_row({reservation::step_policy_name(policy),
                     core::TablePrinter::prob(s.pcb),
                     core::TablePrinter::prob(s.phd),
                     core::TablePrinter::fixed(t_est_f.mean, 1),
                     core::TablePrinter::fixed(t_est_f.stddev, 1),
                     core::TablePrinter::fixed(t_est_f.max, 0),
                     core::TablePrinter::fixed(br_f.stddev, 1)});
    csv.row_values(reservation::step_policy_name(policy), s.pcb, s.phd,
                   t_est_f.mean, t_est_f.stddev, t_est_f.max, br_f.stddev);
  }
  table.print_rule();
  std::cout << "\nExpected shape (paper §4.2): additive/multiplicative react "
               "faster but\noscillate with much larger T_est/B_r swings — "
               "over-reservation that costs P_CB\nwithout improving P_HD; "
               "the fixed 1-s step is the steadiest.\n";
  return 0;
}
