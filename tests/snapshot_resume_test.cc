// Invariant I10 (DESIGN.md §13): resuming a simulation from a snapshot
// is invisible — the resumed run's trajectory digest is bitwise
// identical to the uninterrupted run's, for linear and hex systems, at
// any snapshot point, through chains of snapshots, and under random
// fault schedules. Also pins down the byte-level contract: saving is
// deterministic, and a freshly loaded system saves back the identical
// bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "audit/differential.h"
#include "core/hex_system.h"
#include "core/random_scenario.h"
#include "core/system.h"
#include "snapshot/format.h"

namespace pabr {
namespace {

constexpr int kAuditEvery = 4;

TEST(SnapshotResumeTest, ResumedDigestMatchesUninterrupted) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed);
    const std::uint64_t straight =
        audit::run_scenario_digest(spec, true, kAuditEvery);
    const double frac = audit::snapshot_fraction_for_seed(seed);
    EXPECT_EQ(straight,
              audit::run_scenario_resume_digest(spec, true, kAuditEvery, frac))
        << spec.summary() << " snapshot at fraction " << frac;
  }
}

TEST(SnapshotResumeTest, ChainedSnapshotsMatchUninterrupted) {
  const std::vector<double> fractions = {0.2, 0.45, 0.7, 0.95};
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed);
    EXPECT_EQ(
        audit::run_scenario_digest(spec, true, kAuditEvery),
        audit::run_scenario_resume_digest(spec, true, kAuditEvery, fractions))
        << spec.summary();
  }
}

TEST(SnapshotResumeTest, ResumeAtBoundariesMatches) {
  const core::ScenarioSpec spec = core::random_scenario(3);
  const std::uint64_t straight =
      audit::run_scenario_digest(spec, true, kAuditEvery);
  // t = 0 (nothing has run) and t = duration (nothing left to run).
  EXPECT_EQ(straight,
            audit::run_scenario_resume_digest(spec, true, kAuditEvery, 0.0));
  EXPECT_EQ(straight,
            audit::run_scenario_resume_digest(spec, true, kAuditEvery, 1.0));
}

TEST(SnapshotResumeTest, ScratchModeResumesIdentically) {
  for (std::uint64_t seed = 30; seed <= 33; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed);
    EXPECT_EQ(audit::run_scenario_digest(spec, false, kAuditEvery),
              audit::run_scenario_resume_digest(spec, false, kAuditEvery, 0.5))
        << spec.summary();
  }
}

TEST(SnapshotResumeTest, ResumedDigestMatchesUnderFaults) {
  for (std::uint64_t seed = 40; seed <= 47; ++seed) {
    const core::ScenarioSpec spec =
        core::random_scenario(seed, /*with_faults=*/true);
    const std::uint64_t straight =
        audit::run_scenario_digest(spec, true, kAuditEvery);
    const double frac = audit::snapshot_fraction_for_seed(seed);
    EXPECT_EQ(straight,
              audit::run_scenario_resume_digest(spec, true, kAuditEvery, frac))
        << spec.summary();
  }
}

// Saving the same state twice yields identical bytes, and a loaded
// system immediately saves back the exact bytes it was loaded from —
// the save/load pair is a fixed point, not merely digest-equivalent.
TEST(SnapshotResumeTest, SaveIsAFixedPointThroughLoad) {
  core::SystemConfig cfg;
  cfg.seed = 9;
  core::CellularSystem sys(cfg);
  sys.run_for(400.0);

  std::ostringstream a(std::ios::binary);
  std::ostringstream b(std::ios::binary);
  sys.save(a);
  sys.save(b);
  EXPECT_EQ(a.str(), b.str());

  std::istringstream in(a.str(), std::ios::binary);
  const auto loaded = core::CellularSystem::load(in);
  std::ostringstream c(std::ios::binary);
  loaded->save(c);
  EXPECT_EQ(a.str(), c.str());

  // The emitted bytes validate as a well-formed snapshot file.
  std::istringstream validate(a.str(), std::ios::binary);
  const snapshot::Reader reader(validate);
  EXPECT_EQ(reader.header().kind, snapshot::SystemKind::kLinear);
  EXPECT_EQ(reader.header().sim_time, sys.now());
  EXPECT_EQ(reader.header().run_seed, cfg.seed);
  EXPECT_TRUE(reader.has_section("cells"));
  EXPECT_TRUE(reader.has_section("rngs"));
  EXPECT_TRUE(reader.has_section("engine"));
}

// A hex snapshot refuses to load as a linear system and vice versa.
TEST(SnapshotResumeTest, LoadRejectsWrongSystemKind) {
  core::HexSystemConfig cfg;
  cfg.seed = 5;
  core::HexCellularSystem sys(cfg);
  sys.run_for(50.0);
  std::ostringstream os(std::ios::binary);
  sys.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  EXPECT_THROW(core::CellularSystem::load(is), snapshot::FormatError);
}

}  // namespace
}  // namespace pabr
