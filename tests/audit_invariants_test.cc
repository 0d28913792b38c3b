// The invariant-audit subsystem (src/audit/): primitive checks, the
// system-level sweeps on clean runs with every extension enabled, and
// negative tests proving the sweep actually detects corrupted state.
#include <gtest/gtest.h>

#include "audit/invariants.h"
#include "core/hex_system.h"
#include "core/system.h"
#include "hoef/estimator.h"
#include "traffic/workload.h"
#include "util/check.h"

namespace pabr {
namespace {

TEST(AuditPrimitivesTest, CleanCellPasses) {
  core::Cell cell(0, 20.0);
  cell.attach(3, 4);
  cell.attach(1, 1);
  cell.attach(7, 1);
  EXPECT_NO_THROW(audit::audit_cell(cell));
  EXPECT_EQ(audit::held_bandwidth(cell, 3), 4);
  EXPECT_EQ(audit::held_bandwidth(cell, 1), 1);
  EXPECT_EQ(audit::held_bandwidth(cell, 2), -1);
  EXPECT_EQ(audit::held_bandwidth(cell, 99), -1);
}

TEST(AuditPrimitivesTest, CleanLinkPasses) {
  wired::Link link(0, "access-1", 10.0);
  link.attach(1, 4);
  link.attach(2, 1);
  EXPECT_NO_THROW(audit::audit_link(link));
  EXPECT_DOUBLE_EQ(link.attached_sum(), 5.0);
  EXPECT_EQ(link.held(1), 4);
  EXPECT_EQ(link.held(9), 0);
}

TEST(AuditPrimitivesTest, EstimatorAuditAcceptsRecordedHistory) {
  hoef::HandoffEstimator est(0, hoef::EstimatorConfig{});
  for (int i = 0; i < 50; ++i) {
    est.record(hoef::Quadruplet{static_cast<double>(i), 0, 1,
                                30.0 + static_cast<double>(i % 7)});
  }
  EXPECT_NO_THROW(est.audit());
}

core::SystemConfig everything_on_config() {
  core::SystemConfig cfg;
  cfg.num_cells = 5;
  cfg.capacity_bu = 30.0;
  cfg.soft_capacity_margin = 0.1;
  cfg.adaptive_qos = true;
  cfg.wired = wired::BackboneConfig{35.0, 120.0};
  cfg.soft_handoff_zone_km = 0.15;
  cfg.known_route_fraction = 0.3;
  cfg.retry.enabled = true;
  cfg.workload.voice_ratio = 0.5;
  cfg.workload.mean_lifetime_s = 60.0;
  cfg.workload.arrival_rate_per_cell =
      traffic::arrival_rate_for_load(70.0, 0.5, 60.0);
  cfg.audit_every = 1;  // per-event sweep
  cfg.seed = 11;
  return cfg;
}

TEST(SystemAuditTest, LinearCleanRunPassesEveryEvent) {
  core::CellularSystem sys(everything_on_config());
  sys.run_for(200.0);
  // The scenario must actually exercise the machinery for the audit to
  // mean anything.
  const core::SystemStatus s = sys.system_status();
  EXPECT_GT(s.requests, 0u);
  EXPECT_GT(s.handoffs, 0u);
  EXPECT_GT(sys.active_connections(), 0u);
  // Explicit checkpoint works in every build, audited or not.
  EXPECT_NO_THROW(sys.audit_invariants());
}

TEST(SystemAuditTest, HexCleanRunPassesEveryEvent) {
  core::HexSystemConfig cfg;
  cfg.rows = 3;
  cfg.cols = 4;
  cfg.capacity_bu = 30.0;
  cfg.voice_ratio = 0.5;
  cfg.mean_lifetime_s = 60.0;
  cfg.set_offered_load(70.0);
  cfg.audit_every = 1;
  cfg.seed = 11;
  core::HexCellularSystem sys(cfg);
  sys.run_for(200.0);
  EXPECT_GT(sys.system_status().handoffs, 0u);
  EXPECT_NO_THROW(sys.audit_invariants());
}

TEST(SystemAuditTest, DetectsForeignCellEntry) {
  core::SystemConfig cfg = everything_on_config();
  cfg.audit_every = 0;  // corrupt first, audit by hand
  core::CellularSystem sys(cfg);
  sys.run_for(50.0);
  // A cell entry no mobile owns breaks the residency bijection (I4).
  sys.cell(0).attach(999999, 1);
  EXPECT_THROW(sys.audit_invariants(), InvariantError);
}

TEST(SystemAuditTest, DetectsBandwidthMismatch) {
  core::SystemConfig cfg = everything_on_config();
  cfg.audit_every = 0;
  cfg.wired.reset();  // keep the corruption on the radio side only
  core::CellularSystem sys(cfg);
  sys.run_for(80.0);
  ASSERT_GT(sys.active_connections(), 0u);
  // Shrink some resident video connection behind the system's back: B_u
  // still sums (I2), but the entry no longer matches the mobile record
  // (I4). Shrinking always fits, so the corruption itself cannot throw.
  bool corrupted = false;
  for (geom::CellId c = 0; c < cfg.num_cells && !corrupted; ++c) {
    for (const auto& e : sys.cell(c).connections()) {
      if (e.bandwidth > 1) {
        sys.cell(c).reassign(e.id, e.bandwidth - 1);
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted) << "no multi-BU connection to corrupt";
  EXPECT_THROW(sys.audit_invariants(), InvariantError);
}

TEST(SystemAuditTest, HexDetectsForeignCellEntry) {
  core::HexSystemConfig cfg;
  cfg.rows = 2;
  cfg.cols = 4;
  cfg.set_offered_load(60.0);
  core::HexCellularSystem sys(cfg);
  sys.run_for(50.0);
  sys.cell(0).attach(999999, 1);
  EXPECT_THROW(sys.audit_invariants(), InvariantError);
}

}  // namespace
}  // namespace pabr
