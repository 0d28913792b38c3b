// Differential scenario fuzzing (smoke-sized; bench/fuzz_driver runs the
// hundreds-of-seeds version). Each seed expands deterministically into a
// randomized short simulation which must:
//
//   * survive a full per-event invariant audit plus an explicit
//     end-of-run audit checkpoint, and
//   * produce a bitwise-identical trajectory whether the reservation is
//     served incrementally or recomputed from scratch, and whether the
//     batch runs on one thread or several.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "audit/differential.h"
#include "core/random_scenario.h"
#include "sim/parallel.h"

namespace pabr {
namespace {

constexpr int kAuditEvery = 4;

TEST(FuzzScenarioTest, GeneratorIsDeterministic) {
  const core::ScenarioSpec a = core::random_scenario(7);
  const core::ScenarioSpec b = core::random_scenario(7);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(audit::run_scenario_digest(a, true, 0),
            audit::run_scenario_digest(b, true, 0));
  // Different seeds give different scenarios (vacuity guard).
  EXPECT_NE(a.summary(), core::random_scenario(8).summary());
}

TEST(FuzzScenarioTest, IncrementalMatchesScratchUnderAudit) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed);
    const std::uint64_t incremental =
        audit::run_scenario_digest(spec, true, kAuditEvery);
    const std::uint64_t scratch =
        audit::run_scenario_digest(spec, false, kAuditEvery);
    EXPECT_EQ(incremental, scratch) << spec.summary();
  }
}

TEST(FuzzScenarioTest, DigestIndependentOfThreadCount) {
  constexpr std::uint64_t kBase = 100;
  constexpr std::size_t kSeeds = 8;
  const auto run_batch = [&](int threads) {
    return sim::parallel_map<std::uint64_t>(
        threads, kSeeds, [&](std::size_t i) {
          const core::ScenarioSpec spec =
              core::random_scenario(kBase + static_cast<std::uint64_t>(i));
          return audit::run_scenario_digest(spec, true, kAuditEvery);
        });
  };
  const std::vector<std::uint64_t> sequential = run_batch(1);
  const std::vector<std::uint64_t> parallel = run_batch(4);
  EXPECT_EQ(sequential, parallel);
}

// Fault-schedule corpus (random_scenario's with_faults = true): the
// differential contracts must survive link/station outages, message
// loss and degraded-mode reservation.
TEST(FuzzScenarioTest, FaultSchedulesKeepIncrementalScratchEqual) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed, true);
    const std::uint64_t incremental =
        audit::run_scenario_digest(spec, true, kAuditEvery);
    const std::uint64_t scratch =
        audit::run_scenario_digest(spec, false, kAuditEvery);
    EXPECT_EQ(incremental, scratch) << spec.summary();
  }
}

TEST(FuzzScenarioTest, FaultDigestIndependentOfThreadCount) {
  constexpr std::uint64_t kBase = 300;
  constexpr std::size_t kSeeds = 8;
  const auto run_batch = [&](int threads) {
    return sim::parallel_map<std::uint64_t>(
        threads, kSeeds, [&](std::size_t i) {
          const core::ScenarioSpec spec = core::random_scenario(
              kBase + static_cast<std::uint64_t>(i), true);
          return audit::run_scenario_digest(spec, true, kAuditEvery);
        });
  };
  EXPECT_EQ(run_batch(1), run_batch(4));
}

TEST(FuzzScenarioTest, FaultScheduleRidesOnSeparateStream) {
  // The schedule comes from its own named RNG stream: disabling it on a
  // with_faults expansion must reproduce the plain expansion's
  // trajectory exactly (the base scenario draw is unperturbed).
  for (std::uint64_t seed = 40; seed <= 44; ++seed) {
    const core::ScenarioSpec plain = core::random_scenario(seed);
    core::ScenarioSpec defused = core::random_scenario(seed, true);
    (defused.hex ? defused.grid.fault : defused.linear.fault).enabled = false;
    EXPECT_EQ(audit::run_scenario_digest(plain, true, 0),
              audit::run_scenario_digest(defused, true, 0))
        << plain.summary();
  }
}

}  // namespace
}  // namespace pabr
