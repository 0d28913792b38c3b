// Determinism contract: telemetry is write-only observation, so the
// trajectory digest of any scenario is byte-identical with telemetry off,
// on with metrics only, or on with full tracing.
#include <gtest/gtest.h>

#include <cstdint>

#include "audit/differential.h"
#include "core/random_scenario.h"
#include "telemetry/telemetry.h"

namespace pabr {
namespace {

telemetry::TelemetryConfig full_telemetry() {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.trace = true;
  cfg.time_admissions = true;
  return cfg;
}

telemetry::TelemetryConfig metrics_only() {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.trace = false;
  cfg.time_admissions = false;
  return cfg;
}

void expect_digest_invariant(std::uint64_t seed) {
  core::ScenarioSpec base = core::random_scenario(seed);

  core::ScenarioSpec with_full = base;
  with_full.linear.telemetry = full_telemetry();
  with_full.grid.telemetry = full_telemetry();

  core::ScenarioSpec with_metrics = base;
  with_metrics.linear.telemetry = metrics_only();
  with_metrics.grid.telemetry = metrics_only();

  const std::uint64_t off = audit::run_scenario_digest(base, true, 0);
  const std::uint64_t full = audit::run_scenario_digest(with_full, true, 0);
  const std::uint64_t metrics =
      audit::run_scenario_digest(with_metrics, true, 0);
  EXPECT_EQ(off, full) << base.summary();
  EXPECT_EQ(off, metrics) << base.summary();
}

TEST(TelemetryDeterminismTest, DigestUnchangedAcrossSeeds) {
  // random_scenario draws both linear and hex topologies across this
  // range, so both simulators get covered.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expect_digest_invariant(seed);
  }
}

TEST(TelemetryDeterminismTest, DigestUnchangedWithTinyRingAndSampling) {
  // Rotation and sampling drop trace records; they must not drop events.
  core::ScenarioSpec base = core::random_scenario(5);
  core::ScenarioSpec tiny = base;
  telemetry::TelemetryConfig cfg = full_telemetry();
  cfg.trace_capacity = 64;      // forces heavy rotation
  cfg.trace_sample_every = 7;   // and sampling
  tiny.linear.telemetry = cfg;
  tiny.grid.telemetry = cfg;
  EXPECT_EQ(audit::run_scenario_digest(base, true, 0),
            audit::run_scenario_digest(tiny, true, 0))
      << base.summary();
}

TEST(TelemetryDeterminismTest, DigestUnchangedInFromScratchMode) {
  core::ScenarioSpec base = core::random_scenario(9);
  core::ScenarioSpec traced = base;
  traced.linear.telemetry = full_telemetry();
  traced.grid.telemetry = full_telemetry();
  EXPECT_EQ(audit::run_scenario_digest(base, false, 0),
            audit::run_scenario_digest(traced, false, 0))
      << base.summary();
}

}  // namespace
}  // namespace pabr
