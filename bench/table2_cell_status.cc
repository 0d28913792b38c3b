// Table 2: per-cell status at the end of a simulation with offered load
// 300, R_vo = 1.0, high user mobility, on the 10-cell ring — (a) AC1 and
// (b) AC3.
//
// Paper's observations this should reproduce:
//   * AC1: wildly unbalanced cells — alternating very high/low P_CB,
//     several cells with P_HD above the 0.01 target, T_est and B_r
//     exploding in the starved cells;
//   * AC3: balanced P_CB across cells and P_HD < 0.01 everywhere.
#include "bench_common.h"

namespace {

void run_one(pabr::admission::PolicyKind kind,
             const pabr::bench::CommonOptions& opts, pabr::csv::Writer& csv,
             std::vector<std::vector<pabr::telemetry::TraceRecord>>& streams,
             std::uint64_t& trace_rotated) {
  using namespace pabr;
  core::StationaryParams p;
  p.offered_load = 300.0;
  p.voice_ratio = 1.0;
  p.mobility = core::Mobility::kHigh;
  p.policy = kind;
  p.seed = opts.seed;

  // The paper reports end-of-run cumulative values (no warm-up reset).
  core::RunPlan plan;
  plan.warmup_s = 0.0;
  plan.measure_s = opts.full ? 20000.0 : 6000.0;
  plan.reset_after_warmup = false;

  core::SystemConfig cfg = core::stationary_config(p);
  cfg.telemetry = opts.telemetry_config();
  auto r = core::run_system(cfg, plan);
  if (opts.telemetry_requested()) {
    streams.push_back(std::move(r.trace));
    trace_rotated += r.trace_rotated_out;
  }

  std::cout << "\n(" << (kind == admission::PolicyKind::kAc1 ? "a" : "b")
            << ") " << admission::policy_kind_name(kind) << "\n";
  core::TablePrinter table(
      {"Cell", "P_CB", "P_HD", "T_est", "B_r", "B_u"},
      {5, 10, 10, 7, 8, 6});
  table.print_header();
  for (const auto& c : r.cells) {
    table.print_row({core::TablePrinter::integer(
                         static_cast<std::uint64_t>(c.cell)),
                     core::TablePrinter::prob(c.pcb),
                     core::TablePrinter::prob(c.phd),
                     core::TablePrinter::fixed(c.t_est, 0),
                     core::TablePrinter::fixed(c.br, 2),
                     core::TablePrinter::fixed(c.bu, 0)});
    csv.row_values(admission::policy_kind_name(kind), c.cell, c.pcb, c.phd,
                   c.t_est, c.br, c.bu);
  }
  table.print_rule();
  std::cout << "system: P_CB = " << core::TablePrinter::prob(r.status.pcb)
            << ", P_HD = " << core::TablePrinter::prob(r.status.phd)
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  cli::Parser cli("table2_cell_status",
                  "per-cell status, L = 300, AC1 vs AC3 (paper Table 2)");
  bench::add_common_flags(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Table 2 — per-cell status at end of run "
                      "(L = 300, R_vo = 1.0, high mobility, ring)");
  csv::Writer csv(opts.csv_path);
  csv.header({"policy", "cell", "pcb", "phd", "t_est", "br", "bu"});
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;
  run_one(admission::PolicyKind::kAc1, opts, csv, trace_streams,
          trace_rotated);
  run_one(admission::PolicyKind::kAc3, opts, csv, trace_streams,
          trace_rotated);
  bench::write_bench_trace("table2_cell_status", opts, trace_streams,
                           trace_rotated);
  return 0;
}
