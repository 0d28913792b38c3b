// Basic behaviour of the sharded executor: slot derivation, validation,
// warm-up reset, audit hook, telemetry merge consistency.
#include "sim/sharded/executor.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace pabr::sim::sharded {
namespace {

ShardedConfig small_config() {
  ShardedConfig cfg;
  cfg.system.rows = 4;
  cfg.system.cols = 6;
  cfg.system.wrap = true;
  cfg.system.policy = admission::PolicyKind::kAc2;
  cfg.system.arrival_rate_per_cell = 0.5;
  cfg.system.seed = 7;
  cfg.shards = 1;
  cfg.duration_s = 150.0;
  return cfg;
}

TEST(ShardedExecutorTest, DerivesConservativeSlotFromMobility) {
  // 3600 * 1 km / 120 km/h * (1 - 0.2) = 24 s: the fastest possible cell
  // traversal, so nothing can cross more than one cell per slot.
  ShardedExecutor exec(small_config());
  EXPECT_DOUBLE_EQ(exec.slot_length(), 24.0);
}

TEST(ShardedExecutorTest, SlotOverrideMustNotExceedLookahead) {
  ShardedConfig cfg = small_config();
  cfg.slot_override_s = 12.0;
  EXPECT_DOUBLE_EQ(ShardedExecutor(cfg).slot_length(), 12.0);
  cfg.slot_override_s = 24.5;
  EXPECT_THROW(ShardedExecutor{cfg}, InvariantError);
}

TEST(ShardedExecutorTest, SingleShardRunProducesTraffic) {
  ShardedExecutor exec(small_config());
  const ShardedResult r = exec.run();
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.status.requests, 0u);
  EXPECT_GT(r.status.handoffs, 0u);
  EXPECT_GT(r.status.bu_avg, 0.0);
  EXPECT_NE(r.digest, 0u);
  EXPECT_EQ(r.cells.size(), 24u);
  EXPECT_EQ(r.cells.front().cell, 1);  // 1-based, as the paper numbers cells
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(ShardedExecutorTest, ZeroArrivalRateStaysQuiet) {
  ShardedConfig cfg = small_config();
  cfg.system.arrival_rate_per_cell = 0.0;
  const ShardedResult r = ShardedExecutor(cfg).run();
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(r.status.requests, 0u);
  EXPECT_EQ(r.active_connections, 0u);
}

TEST(ShardedExecutorTest, WarmupResetDropsEarlyTallies) {
  ShardedConfig cfg = small_config();
  const ShardedResult full = ShardedExecutor(cfg).run();
  cfg.warmup_s = 72.0;  // slot-aligned: 3 slots of 24 s
  const ShardedResult measured = ShardedExecutor(cfg).run();
  EXPECT_LT(measured.status.requests, full.status.requests);
  EXPECT_GT(measured.status.requests, 0u);
  // The trajectory itself is warm-up independent: same events either way.
  EXPECT_EQ(measured.events, full.events);
}

TEST(ShardedExecutorTest, WarmupMustLeaveMeasurementSlots) {
  ShardedConfig cfg = small_config();
  cfg.warmup_s = cfg.duration_s + 1.0;
  EXPECT_THROW(ShardedExecutor{cfg}, InvariantError);
  cfg.warmup_s = cfg.duration_s;  // reset slot would be the horizon itself
  EXPECT_THROW(ShardedExecutor{cfg}, InvariantError);
}

TEST(ShardedExecutorTest, RejectsBadShardCounts) {
  ShardedConfig cfg = small_config();
  cfg.shards = 0;
  EXPECT_THROW(ShardedExecutor{cfg}, InvariantError);
  cfg.shards = 25;  // more shards than cells
  EXPECT_THROW(ShardedExecutor{cfg}, InvariantError);
}

TEST(ShardedExecutorTest, BarrierAuditPassesOnCleanRun) {
  ShardedConfig cfg = small_config();
  cfg.audit_at_barriers = true;
  const ShardedResult r = ShardedExecutor(cfg).run();
  EXPECT_GT(r.events, 0u);
}

TEST(ShardedExecutorTest, MergedTelemetryMatchesStatusTallies) {
  ShardedConfig cfg = small_config();
  cfg.shards = 3;
  cfg.system.telemetry.enabled = true;
  cfg.system.telemetry.time_admissions = false;
  const ShardedResult r = ShardedExecutor(cfg).run();
  EXPECT_EQ(r.telemetry.counter("admission.admitted") +
                r.telemetry.counter("admission.blocked"),
            r.status.requests);
  EXPECT_EQ(r.telemetry.counter("admission.blocked"), r.status.blocks);
  EXPECT_EQ(r.telemetry.counter("handoff.completed") +
                r.telemetry.counter("handoff.dropped"),
            r.status.handoffs);
  EXPECT_EQ(r.telemetry.counter("handoff.dropped"), r.status.drops);
  EXPECT_GT(r.telemetry.counter("reservation.recomputes"), 0u);
}

}  // namespace
}  // namespace pabr::sim::sharded
