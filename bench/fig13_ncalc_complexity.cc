// Figure 13: N_calc — the average number of B_r calculations per
// admission test — vs offered load for AC1 / AC2 / AC3 under (a) high and
// (b) low user mobility.
//
// Paper's observations this should reproduce: N_calc = 1 flat for AC1,
// = 3 flat for AC2 (both neighbours + the cell itself on the 1-D road),
// and for AC3 = 1 at light load, rising from about L = 80 but staying
// below 1.5 everywhere. Backhaul message counts per admission are also
// reported for both interconnect layouts of Fig. 1.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  cli::Parser cli("fig13_ncalc_complexity",
                  "N_calc vs load for AC1/AC2/AC3 (paper Fig. 13)");
  bench::add_common_flags(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Figure 13 — admission-test complexity (N_calc)");
  csv::Writer csv(opts.csv_path);
  csv.header({"mobility", "policy", "load", "n_calc", "msgs_per_admission"});
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  const admission::PolicyKind kinds[] = {admission::PolicyKind::kAc1,
                                         admission::PolicyKind::kAc2,
                                         admission::PolicyKind::kAc3};
  for (const core::Mobility mob :
       {core::Mobility::kHigh, core::Mobility::kLow}) {
    std::cout << "\n-- " << core::mobility_name(mob)
              << " user mobility --\n";
    core::TablePrinter table(
        {"policy", "load", "N_calc", "msgs/adm"},
        {7, 6, 8, 9});
    table.print_header();
    for (const auto kind : kinds) {
      for (const double load : core::paper_load_grid()) {
        core::StationaryParams p;
        p.offered_load = load;
        p.voice_ratio = 1.0;
        p.mobility = mob;
        p.policy = kind;
        p.seed = opts.seed;
        core::SystemConfig cfg = core::stationary_config(p);
        cfg.telemetry = opts.telemetry_config();
        const auto plan = opts.plan();
        core::CellularSystem sys(cfg);
        sys.run_for(plan.warmup_s);
        sys.reset_metrics();
        sys.run_for(plan.measure_s);
        const auto s = sys.system_status();
        if (sys.telemetry().enabled()) {
          trace_rotated += sys.telemetry().buffer().rotated_out();
          trace_streams.push_back(sys.telemetry().drain_trace());
        }
        const double msgs =
            s.requests == 0
                ? 0.0
                : static_cast<double>(s.backhaul_messages -
                                      s.handoffs) /  // exclude hand-off sigs
                      static_cast<double>(s.requests);
        table.print_row({admission::policy_kind_name(kind),
                         core::TablePrinter::fixed(load, 0),
                         core::TablePrinter::fixed(s.n_calc, 3),
                         core::TablePrinter::fixed(msgs, 2)});
        csv.row_values(core::mobility_name(mob),
                       admission::policy_kind_name(kind), load, s.n_calc,
                       msgs);
      }
      table.print_rule();
    }
  }
  bench::write_bench_trace("fig13_ncalc_complexity", opts, trace_streams,
                           trace_rotated);
  return 0;
}
