// Ablation (paper §1 + §7): adaptive-QoS degradation and CDMA soft
// capacity as complements to predictive reservation.
//
//   * §1: "a connection's QoS can be downgraded when there is an
//     insufficient bandwidth available in the new cell ... when both are
//     used together, bandwidth reservation is made on the basis of the
//     minimum QoS of each connection."
//   * §7: "The modification of the proposed scheme to be used in the CDMA
//     systems is also planned, where hand-off drops can be reduced due to
//     (1) soft capacity notion and (2) soft hand-off support."
//
// Four configurations on the same heavy video-rich workload: baseline
// AC3, AC3 + adaptive QoS, AC3 + 5% soft capacity, and both.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 300.0;
  double voice_ratio = 0.5;  // video-rich: degradation has room to act
  cli::Parser cli("ablation_adaptive_qos",
                  "adaptive QoS + soft capacity on top of AC3 (§1, §7)");
  bench::add_common_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  cli.add_double("voice-ratio", &voice_ratio, "fraction of voice traffic",
                 0.0, 1.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Ablation — adaptive QoS and soft capacity (§1, §7)");
  csv::Writer csv(opts.csv_path);
  csv.header({"variant", "pcb", "phd", "degrades_per_1k_handoffs",
              "overload_frac"});

  struct Variant {
    const char* name;
    bool adaptive;
    double soft_margin;
    double soft_zone_km;
  };
  const Variant variants[] = {
      {"AC3 baseline", false, 0.0, 0.0},
      {"+ adaptive QoS", true, 0.0, 0.0},
      {"+ 5% soft capacity", false, 0.05, 0.0},
      {"+ soft hand-off", false, 0.0, 0.1},
      {"+ all three", true, 0.05, 0.1},
  };

  core::TablePrinter table({"variant", "P_CB", "P_HD", "degr/1k HO",
                            "overload%", "soft-alloc%"},
                           {19, 10, 10, 11, 10, 11});
  table.print_header();
  for (const auto& v : variants) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = voice_ratio;
    p.mobility = core::Mobility::kHigh;
    p.policy = admission::PolicyKind::kAc3;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.adaptive_qos = v.adaptive;
    cfg.soft_capacity_margin = v.soft_margin;
    cfg.soft_handoff_zone_km = v.soft_zone_km;
    const auto r = core::run_system(cfg, opts.plan());
    const double degr_rate =
        r.status.handoffs == 0
            ? 0.0
            : 1000.0 * static_cast<double>(r.status.degrades) /
                  static_cast<double>(r.status.handoffs);
    const std::uint64_t zone_entries =
        r.status.soft_allocations + r.status.soft_fallbacks;
    const double soft_rate =
        zone_entries == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.status.soft_allocations) /
                  static_cast<double>(zone_entries);
    table.print_row({v.name, core::TablePrinter::prob(r.status.pcb),
                     core::TablePrinter::prob(r.status.phd),
                     core::TablePrinter::fixed(degr_rate, 1),
                     core::TablePrinter::fixed(
                         100.0 * r.status.overload_frac, 2),
                     core::TablePrinter::fixed(soft_rate, 1)});
    csv.row_values(v.name, r.status.pcb, r.status.phd, degr_rate,
                   r.status.overload_frac);
  }
  table.print_rule();
  std::cout << "\nExpected shape: both mechanisms cut hand-off drops below "
               "the baseline —\nadaptive QoS by shrinking demand at the "
               "congested cell (counted as\ndegradations instead), soft "
               "capacity by absorbing the overflow as temporary\n"
               "interference-budget overload. The reservation layer keeps "
               "P_HD at target in\nall variants; the extensions mainly buy "
               "lower P_CB (less reservation needed).\n";
  return 0;
}
