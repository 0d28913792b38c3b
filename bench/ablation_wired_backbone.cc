// Ablation (§2/§7): wired backbone provisioning. The paper reserves only
// wireless bandwidth and notes the scheme "can be extended easily to
// include wired link bandwidth reservation"; this bench provisions the
// BS-to-MSC access links at different fractions of the air-interface
// capacity and shows (a) where the backbone becomes the bottleneck and
// (b) that mirroring B_r onto the access links keeps P_HD bounded even
// then.
#include "bench_common.h"

#include "core/system.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 300.0;
  cli::Parser cli("ablation_wired_backbone",
                  "wired access-link provisioning (§2/§7 extension)");
  bench::add_common_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Ablation — wired backbone provisioning (§2/§7)");
  csv::Writer csv(opts.csv_path);
  csv.header({"access_capacity", "pcb", "phd", "wired_blocks",
              "wired_drops"});

  core::TablePrinter table({"access C_w", "P_CB", "P_HD", "wired blocks",
                            "wired drops", "target"},
                           {10, 10, 10, 13, 12, 7});
  table.print_header();
  for (const double cw : {1e9, 100.0, 90.0, 80.0, 70.0}) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = 1.0;
    p.mobility = core::Mobility::kHigh;
    p.policy = admission::PolicyKind::kAc3;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.wired = wired::BackboneConfig{cw, 1e9};

    const auto plan = opts.plan();
    core::CellularSystem sys(cfg);
    sys.run_for(plan.warmup_s);
    sys.reset_metrics();
    sys.run_for(plan.measure_s);
    const auto s = sys.system_status();

    const std::string label = cw >= 1e9 ? "inf" : core::TablePrinter::fixed(cw, 0);
    table.print_row({label, core::TablePrinter::prob(s.pcb),
                     core::TablePrinter::prob(s.phd),
                     core::TablePrinter::integer(sys.wired_blocks()),
                     core::TablePrinter::integer(sys.wired_drops()),
                     s.phd <= 0.0125 ? "ok" : "MISS"});
    csv.row_values(cw, s.pcb, s.phd,
                   static_cast<unsigned long long>(sys.wired_blocks()),
                   static_cast<unsigned long long>(sys.wired_drops()));
  }
  table.print_rule();
  std::cout << "\nExpected shape: with C_w >= C the backbone is invisible; "
               "as C_w shrinks the\naccess links start blocking new calls "
               "(wired blocks grow, P_CB rises), while\nthe mirrored "
               "wired-side reservation keeps hand-off drops near the "
               "target until\nthe links are severely under-provisioned.\n";
  return 0;
}
