// Quickstart: build the paper's 10-cell ring, run AC3 under a moderate
// load, and print the headline QoS metrics.
//
//   $ ./quickstart [--load 200] [--voice-ratio 1.0] [--policy ac3]
//
// The interesting outcome: P_HD stays at or below the 0.01 target even
// when the cell is heavily over-loaded, while new-connection blocking
// (P_CB) absorbs the pressure.
#include <iostream>

#include "core/experiment.h"
#include "core/scenario.h"
#include "util/cli.h"

namespace {

pabr::admission::PolicyKind parse_policy(const std::string& name) {
  if (name == "ac1") return pabr::admission::PolicyKind::kAc1;
  if (name == "ac2") return pabr::admission::PolicyKind::kAc2;
  if (name == "ac3") return pabr::admission::PolicyKind::kAc3;
  if (name == "static") return pabr::admission::PolicyKind::kStatic;
  std::cerr << "unknown policy '" << name << "', using ac3\n";
  return pabr::admission::PolicyKind::kAc3;
}

}  // namespace

int main(int argc, char** argv) {
  double load = 200.0;
  double voice_ratio = 1.0;
  std::string policy = "ac3";
  unsigned long long seed = 1;

  pabr::cli::Parser cli("quickstart",
                        "minimal PABR simulation on the 10-cell ring");
  cli.add_double("load", &load, "offered load per cell in BUs (Eq. 7)", 0.0);
  cli.add_double("voice-ratio", &voice_ratio,
                 "fraction of 1-BU voice connections (rest are 4-BU video)",
                 0.0, 1.0);
  cli.add_string("policy", &policy, "ac1 | ac2 | ac3 | static");
  cli.add_uint64("seed", &seed, "simulation seed");
  if (!cli.parse(argc, argv)) return 1;

  pabr::core::StationaryParams params;
  params.offered_load = load;
  params.voice_ratio = voice_ratio;
  params.mobility = pabr::core::Mobility::kHigh;
  params.policy = parse_policy(policy);
  params.seed = seed;

  pabr::core::RunPlan plan;
  plan.warmup_s = 1000.0;
  plan.measure_s = 4000.0;

  std::cout << "PABR quickstart — " << policy << ", offered load " << load
            << " BU/cell, R_vo " << voice_ratio << "\n";
  const auto result =
      pabr::core::run_system(pabr::core::stationary_config(params), plan);

  const auto& s = result.status;
  std::cout << "  new-connection requests : " << s.requests << "\n"
            << "  P_CB (blocking prob.)   : " << s.pcb << "\n"
            << "  hand-off attempts       : " << s.handoffs << "\n"
            << "  P_HD (dropping prob.)   : " << s.phd
            << "   (target 0.01)\n"
            << "  avg target reservation  : " << s.br_avg << " BU\n"
            << "  avg bandwidth in use    : " << s.bu_avg << " BU\n"
            << "  N_calc per admission    : " << s.n_calc << "\n"
            << "  events simulated        : " << result.events << " in "
            << result.wall_seconds << " s\n";
  return 0;
}
