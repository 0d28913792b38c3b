// Ablation (paper §2, Fig. 1): the BS interconnect. In the star topology
// every B_r exchange crosses the MSC (2 wired hops); fully-connected BSs
// exchange directly (1 hop). The paper's N_calc metric is topology-
// independent — this bench adds the wire-level view: signalling messages
// and hop counts per admission test for each scheme on each interconnect.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 200.0;
  cli::Parser cli("ablation_backhaul",
                  "star-MSC vs fully-connected BS interconnect (Fig. 1)");
  bench::add_common_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Ablation — BS interconnect topologies (Fig. 1)");
  csv::Writer csv(opts.csv_path);
  csv.header({"interconnect", "policy", "n_calc", "msgs_per_admission",
              "hops_per_admission"});

  core::TablePrinter table({"interconnect", "policy", "N_calc", "msgs/adm",
                            "hops/adm"},
                           {16, 7, 8, 9, 9});
  table.print_header();
  for (const auto net : {backhaul::InterconnectKind::kStarMsc,
                         backhaul::InterconnectKind::kFullyConnected}) {
    for (const auto kind :
         {admission::PolicyKind::kAc1, admission::PolicyKind::kAc2,
          admission::PolicyKind::kAc3}) {
      core::StationaryParams p;
      p.offered_load = load;
      p.voice_ratio = 1.0;
      p.mobility = core::Mobility::kHigh;
      p.policy = kind;
      p.seed = opts.seed;
      core::SystemConfig cfg = core::stationary_config(p);
      cfg.interconnect = net;

      const auto plan = opts.plan();
      core::CellularSystem sys(cfg);
      sys.run_for(plan.warmup_s);
      sys.reset_metrics();
      sys.run_for(plan.measure_s);

      const auto s = sys.system_status();
      const double adm = static_cast<double>(s.requests);
      const double msgs =
          adm == 0.0 ? 0.0
                     : static_cast<double>(s.backhaul_messages - s.handoffs) /
                           adm;
      const double hops =
          adm == 0.0
              ? 0.0
              : static_cast<double>(sys.interconnect().total_hops()) / adm;
      const char* net_name = net == backhaul::InterconnectKind::kStarMsc
                                 ? "star (via MSC)"
                                 : "fully-connected";
      table.print_row({net_name, admission::policy_kind_name(kind),
                       core::TablePrinter::fixed(s.n_calc, 3),
                       core::TablePrinter::fixed(msgs, 2),
                       core::TablePrinter::fixed(hops, 2)});
      csv.row_values(net_name, admission::policy_kind_name(kind), s.n_calc,
                     msgs, hops);
    }
    table.print_rule();
  }
  std::cout << "\nExpected shape: N_calc is identical across interconnects "
               "(it counts\ncalculations, not wires); the star topology "
               "pays ~2x the hops of the\nfull mesh for the same scheme.\n";
  return 0;
}
