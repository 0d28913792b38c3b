// The sharded executor's core contract: results are BITWISE identical
// for every shard count. Each case runs the same configuration at
// shards = 1, 2, 4 (and more) and compares the end-state digests plus
// every aggregate metric field.
#include <gtest/gtest.h>

#include <vector>

#include "sim/sharded/executor.h"

namespace pabr::sim::sharded {
namespace {

ShardedConfig base_config() {
  ShardedConfig cfg;
  cfg.system.rows = 4;
  cfg.system.cols = 6;
  cfg.system.wrap = true;
  cfg.system.policy = admission::PolicyKind::kAc2;
  cfg.system.arrival_rate_per_cell = 0.5;
  cfg.system.seed = 11;
  cfg.duration_s = 200.0;
  return cfg;
}

ShardedResult run_with(ShardedConfig cfg, int shards) {
  cfg.shards = shards;
  ShardedExecutor exec(cfg);
  return exec.run();
}

void expect_identical(const ShardedResult& a, const ShardedResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.active_connections, b.active_connections);
  EXPECT_EQ(a.status.requests, b.status.requests);
  EXPECT_EQ(a.status.blocks, b.status.blocks);
  EXPECT_EQ(a.status.handoffs, b.status.handoffs);
  EXPECT_EQ(a.status.drops, b.status.drops);
  // Doubles compared bitwise-exactly on purpose: shard merges are
  // required to preserve the association order of every float sum.
  EXPECT_EQ(a.status.pcb, b.status.pcb);
  EXPECT_EQ(a.status.phd, b.status.phd);
  EXPECT_EQ(a.status.n_calc, b.status.n_calc);
  EXPECT_EQ(a.status.br_avg, b.status.br_avg);
  EXPECT_EQ(a.status.bu_avg, b.status.bu_avg);
  EXPECT_EQ(a.status.br_calculations, b.status.br_calculations);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].br, b.cells[i].br);
    EXPECT_EQ(a.cells[i].bu, b.cells[i].bu);
    EXPECT_EQ(a.cells[i].t_est, b.cells[i].t_est);
    EXPECT_EQ(a.cells[i].br_avg, b.cells[i].br_avg);
    EXPECT_EQ(a.cells[i].bu_avg, b.cells[i].bu_avg);
  }
}

void expect_shard_invariant(const ShardedConfig& cfg) {
  const ShardedResult one = run_with(cfg, 1);
  ASSERT_GT(one.events, 0u);
  for (const int shards : {2, 3, 4}) {
    const ShardedResult many = run_with(cfg, shards);
    expect_identical(one, many);
  }
}

TEST(ShardEquivalenceTest, Ac2DefaultConfiguration) {
  expect_shard_invariant(base_config());
}

TEST(ShardEquivalenceTest, EveryAdmissionPolicy) {
  for (const auto kind :
       {admission::PolicyKind::kAc1, admission::PolicyKind::kAc3,
        admission::PolicyKind::kNsDca, admission::PolicyKind::kStatic}) {
    ShardedConfig cfg = base_config();
    cfg.system.policy = kind;
    expect_shard_invariant(cfg);
  }
}

TEST(ShardEquivalenceTest, AcrossSeeds) {
  for (const std::uint64_t seed : {2u, 3u}) {
    ShardedConfig cfg = base_config();
    cfg.system.seed = seed;
    expect_shard_invariant(cfg);
  }
}

TEST(ShardEquivalenceTest, WithWarmupReset) {
  ShardedConfig cfg = base_config();
  cfg.warmup_s = 48.0;
  expect_shard_invariant(cfg);
}

TEST(ShardEquivalenceTest, WithSlotOverride) {
  ShardedConfig cfg = base_config();
  cfg.slot_override_s = 8.0;  // 3 barriers per derived slot
  expect_shard_invariant(cfg);
}

TEST(ShardEquivalenceTest, RescanEngineMatchesToo) {
  ShardedConfig cfg = base_config();
  cfg.system.incremental_reservation = false;
  expect_shard_invariant(cfg);
}

TEST(ShardEquivalenceTest, OneShardPerCell) {
  const ShardedConfig cfg = base_config();
  expect_identical(run_with(cfg, 1), run_with(cfg, 24));
}

TEST(ShardEquivalenceTest, WithBarrierAudits) {
  ShardedConfig cfg = base_config();
  cfg.audit_at_barriers = true;
  expect_shard_invariant(cfg);
}

TEST(ShardEquivalenceTest, UnderFaultInjection) {
  ShardedConfig cfg = base_config();
  cfg.system.fault.enabled = true;
  cfg.system.fault.seed = 5;
  cfg.system.fault.link_mtbf_s = 300.0;
  cfg.system.fault.link_mttr_s = 40.0;
  cfg.system.fault.message_loss = 0.02;
  cfg.system.fault.station_mtbf_s = 800.0;
  cfg.system.fault.station_mttr_s = 60.0;
  cfg.audit_at_barriers = true;
  expect_shard_invariant(cfg);
}

TEST(ShardEquivalenceTest, FaultInjectionActuallyFires) {
  // Guards the case above against vacuous success: this fault schedule
  // must actually perturb the fault-free trajectory.
  ShardedConfig cfg = base_config();
  const ShardedResult clean = run_with(cfg, 2);
  cfg.system.fault.enabled = true;
  cfg.system.fault.seed = 5;
  cfg.system.fault.link_mtbf_s = 300.0;
  cfg.system.fault.link_mttr_s = 40.0;
  cfg.system.fault.message_loss = 0.02;
  cfg.system.fault.station_mtbf_s = 800.0;
  cfg.system.fault.station_mttr_s = 60.0;
  const ShardedResult faulty = run_with(cfg, 2);
  EXPECT_NE(clean.digest, faulty.digest);
}

TEST(ShardEquivalenceTest, MergedTelemetryCountersAreShardInvariant) {
  ShardedConfig cfg = base_config();
  cfg.system.telemetry.enabled = true;
  cfg.system.telemetry.time_admissions = false;  // wall-clock histogram off
  const ShardedResult one = run_with(cfg, 1);
  for (const int shards : {2, 4}) {
    const ShardedResult many = run_with(cfg, shards);
    ASSERT_EQ(one.telemetry.counters.size(), many.telemetry.counters.size());
    for (std::size_t i = 0; i < one.telemetry.counters.size(); ++i) {
      EXPECT_EQ(one.telemetry.counters[i].first,
                many.telemetry.counters[i].first);
      EXPECT_EQ(one.telemetry.counters[i].second,
                many.telemetry.counters[i].second)
          << one.telemetry.counters[i].first;
    }
  }
}

}  // namespace
}  // namespace pabr::sim::sharded
