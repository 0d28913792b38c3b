// highway_qos — the paper's motivating scenario as an application: a
// 10-cell highway segment where an operator must pick an admission scheme
// and verify the hand-off QoS contract (P_HD <= 0.01) before deployment.
//
// The example runs the SAME traffic through all four schemes (static G=10,
// AC1, AC2, AC3), prints a side-by-side QoS/complexity report, and renders
// a small per-cell bandwidth picture for the chosen winner.
//
//   $ ./highway_qos [--load 260] [--voice-ratio 0.8] [--low-mobility]
#include <iostream>

#include "core/experiment.h"
#include "core/scenario.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace pabr;

  double load = 260.0;
  double voice_ratio = 0.8;
  bool low_mobility = false;
  unsigned long long seed = 1;
  cli::Parser cli("highway_qos",
                  "compare all admission schemes on one highway workload");
  cli.add_double("load", &load, "offered load per cell (BU, Eq. 7)", 0.0);
  cli.add_double("voice-ratio", &voice_ratio, "fraction of voice traffic",
                 0.0, 1.0);
  cli.add_bool("low-mobility", &low_mobility, "40-60 km/h instead of 80-120");
  cli.add_uint64("seed", &seed, "simulation seed");
  if (!cli.parse(argc, argv)) return 1;

  std::cout << "highway_qos — offered load " << load << " BU/cell, R_vo "
            << voice_ratio << ", "
            << (low_mobility ? "low" : "high") << " mobility\n"
            << "QoS contract: P_HD <= 0.01\n\n";

  core::RunPlan plan;
  plan.warmup_s = 1500.0;
  plan.measure_s = 6000.0;

  struct Row {
    const char* name;
    admission::PolicyKind kind;
    core::RunResult result;
  };
  Row rows[] = {
      {"Static(G=10)", admission::PolicyKind::kStatic, {}},
      {"AC1", admission::PolicyKind::kAc1, {}},
      {"AC2", admission::PolicyKind::kAc2, {}},
      {"AC3", admission::PolicyKind::kAc3, {}},
  };

  for (Row& row : rows) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = voice_ratio;
    p.mobility = low_mobility ? core::Mobility::kLow : core::Mobility::kHigh;
    p.policy = row.kind;
    p.static_g = 10.0;
    p.seed = seed;
    row.result = core::run_system(core::stationary_config(p), plan);
  }

  core::TablePrinter table(
      {"scheme", "P_CB", "P_HD", "QoS met", "N_calc", "avg B_r"},
      {13, 10, 10, 8, 7, 8});
  table.print_header();
  const Row* best = nullptr;
  for (const Row& row : rows) {
    const auto& s = row.result.status;
    const bool met = s.phd <= 0.0125;  // contract + short-run slack
    table.print_row({row.name, core::TablePrinter::prob(s.pcb),
                     core::TablePrinter::prob(s.phd), met ? "yes" : "NO",
                     core::TablePrinter::fixed(s.n_calc, 2),
                     core::TablePrinter::fixed(s.br_avg, 2)});
    // Winner: meets the contract with the lowest blocking, then the lowest
    // signalling complexity.
    if (met && (best == nullptr || s.pcb < best->result.status.pcb - 1e-3 ||
                (s.pcb < best->result.status.pcb + 1e-3 &&
                 s.n_calc < best->result.status.n_calc))) {
      best = &row;
    }
  }
  table.print_rule();

  if (best == nullptr) {
    std::cout << "\nNo scheme met the hand-off QoS contract at this load — "
                 "the cell layer needs more capacity (cell splitting).\n";
    return 0;
  }

  std::cout << "\nRecommended scheme: " << best->name << "\n\n"
            << "Per-cell bandwidth picture (" << best->name << "):\n";
  core::TablePrinter cells({"cell", "P_CB", "P_HD", "avg B_u", "avg B_r"},
                           {5, 10, 10, 8, 8});
  cells.print_header();
  for (const auto& c : best->result.cells) {
    cells.print_row({core::TablePrinter::integer(
                         static_cast<std::uint64_t>(c.cell)),
                     core::TablePrinter::prob(c.pcb),
                     core::TablePrinter::prob(c.phd),
                     core::TablePrinter::fixed(c.bu_avg, 1),
                     core::TablePrinter::fixed(c.br_avg, 1)});
  }
  cells.print_rule();
  return 0;
}
