// Absolute behaviour pins for the three simulation engines.
//
// Every other oracle in the suite is relative (incremental == scratch,
// threads 1 == N, resume == uninterrupted), so a change that shifts all
// paths the same way would pass them. These constants were recorded from
// the reference implementation and must hold bitwise across refactors of
// the per-cell reservation/admission core:
//
//   * trajectory digests of a linear ring run that exercises AC3, adaptive
//     QoS, soft hand-off, the wired backbone, route-known mobiles and
//     telemetry, and of a serial hex AC2 run — each with faults off/on and
//     the incremental engine on/off;
//   * the sharded executor's end-state digest of a small faulted torus at
//     two shard counts;
//   * the per-section payload checksums of a linear and a hex save() at a
//     fixed instant, of a faulted time-varying linear save (retries,
//     load/speed profiles, fault timelines), and of a sharded checkpoint
//     written at two shard counts (the header's git_sha/build_type are
//     ignored).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/differential.h"
#include "core/hex_system.h"
#include "core/scenario.h"
#include "core/system.h"
#include "sim/sharded/executor.h"
#include "snapshot/format.h"

namespace pabr {
namespace {

fault::FaultConfig pin_faults() {
  fault::FaultConfig f;
  f.enabled = true;
  f.seed = 5;
  f.link_mtbf_s = 120.0;
  f.link_mttr_s = 30.0;
  f.message_loss = 0.05;
  f.station_mtbf_s = 400.0;
  f.station_mttr_s = 40.0;
  return f;
}

core::SystemConfig linear_config(bool faults, bool incremental) {
  core::StationaryParams p;
  p.offered_load = 140.0;
  p.voice_ratio = 0.6;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = 17;
  core::SystemConfig cfg = core::stationary_config(p);
  cfg.ring = true;
  cfg.adaptive_qos = true;
  cfg.soft_handoff_zone_km = 0.05;
  cfg.wired = wired::BackboneConfig{};
  cfg.wired->access_capacity_bu = 110.0;
  cfg.known_route_fraction = 0.3;
  cfg.traced_cells = {2};
  cfg.telemetry.enabled = true;
  cfg.telemetry.time_admissions = false;
  cfg.incremental_reservation = incremental;
  if (faults) cfg.fault = pin_faults();
  return cfg;
}

core::HexSystemConfig hex_config(bool faults, bool incremental) {
  core::HexSystemConfig cfg;
  cfg.rows = 4;
  cfg.cols = 6;
  cfg.wrap = true;
  cfg.policy = admission::PolicyKind::kAc2;
  cfg.voice_ratio = 0.7;
  cfg.set_offered_load(130.0);
  cfg.seed = 23;
  cfg.telemetry.enabled = true;
  cfg.telemetry.time_admissions = false;
  cfg.incremental_reservation = incremental;
  if (faults) cfg.fault = pin_faults();
  return cfg;
}

std::uint64_t linear_digest(bool faults, bool incremental) {
  core::CellularSystem sys(linear_config(faults, incremental));
  sys.run_for(600.0);
  sys.audit_invariants();
  return audit::trajectory_digest(sys);
}

std::uint64_t hex_digest(bool faults, bool incremental) {
  core::HexCellularSystem sys(hex_config(faults, incremental));
  sys.run_for(300.0);
  sys.audit_invariants();
  return audit::trajectory_digest(sys);
}

/// (section name, payload checksum) in file order.
using Checksums = std::vector<std::pair<std::string, std::uint64_t>>;

Checksums file_checksums(std::istream& is) {
  const snapshot::Reader reader(is);
  Checksums out;
  for (const auto& s : reader.sections()) out.emplace_back(s.name, s.checksum);
  return out;
}

template <class System>
Checksums section_checksums(System& sys) {
  std::ostringstream os(std::ios::binary);
  sys.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  return file_checksums(is);
}

void expect_checksums(const Checksums& got, const Checksums& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "section order at " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "section " << want[i].first;
  }
}

sim::sharded::ShardedConfig torus_config(int shards, bool faults) {
  sim::sharded::ShardedConfig cfg;
  cfg.system.rows = 4;
  cfg.system.cols = 6;
  cfg.system.wrap = true;
  cfg.system.policy = admission::PolicyKind::kAc2;
  cfg.system.arrival_rate_per_cell = 0.5;
  cfg.system.seed = 11;
  cfg.system.telemetry.enabled = true;
  cfg.system.telemetry.time_admissions = false;
  if (faults) cfg.system.fault = pin_faults();
  cfg.duration_s = 200.0;
  cfg.warmup_s = 20.0;
  cfg.audit_at_barriers = true;
  cfg.shards = shards;
  return cfg;
}

sim::sharded::ShardedResult torus_run(int shards, bool faults) {
  sim::sharded::ShardedExecutor exec(torus_config(shards, faults));
  return exec.run();
}

TEST(EnginePinsTest, LinearTrajectory) {
  EXPECT_EQ(linear_digest(false, true), 0x1d4b254507a9fb46ull);
  EXPECT_EQ(linear_digest(false, false), 0x1d4b254507a9fb46ull);
}

TEST(EnginePinsTest, HexTrajectory) {
  EXPECT_EQ(hex_digest(false, true), 0x201ea9c31fe07cddull);
  EXPECT_EQ(hex_digest(false, false), 0x201ea9c31fe07cddull);
}

TEST(EnginePinsTest, ShardedTorus) {
  EXPECT_EQ(torus_run(1, false).digest, 0x78c181f992c902fcull);
  EXPECT_EQ(torus_run(3, false).digest, 0x78c181f992c902fcull);
}

TEST(EnginePinsTest, LinearTrajectoryUnderFaults) {
  EXPECT_EQ(linear_digest(true, true), 0x2442718bf1a9f167ull);
  EXPECT_EQ(linear_digest(true, false), 0x2442718bf1a9f167ull);
}

TEST(EnginePinsTest, HexTrajectoryUnderFaults) {
  EXPECT_EQ(hex_digest(true, true), 0x6c9ded15c3958e78ull);
  EXPECT_EQ(hex_digest(true, false), 0x6c9ded15c3958e78ull);
}

TEST(EnginePinsTest, ShardedTorusUnderFaults) {
  EXPECT_EQ(torus_run(1, true).digest, 0x40fa68aee0716638ull);
  EXPECT_EQ(torus_run(3, true).digest, 0x40fa68aee0716638ull);
}

TEST(EnginePinsTest, LinearSnapshotSections) {
  core::CellularSystem sys(linear_config(false, true));
  sys.run_for(150.0);
  expect_checksums(section_checksums(sys), Checksums{
                      {"config", 0x824a7ff9c98942b2ull},
                      {"simulator", 0x6dd6f9912b036719ull},
                      {"rngs", 0xe6a6caf575e4bf8aull},
                      {"cells", 0x9f08ae30aa18b82aull},
                      {"stations", 0x971d7bd27bf091b0ull},
                      {"metrics", 0x16983b28c73dfd20ull},
                      {"traces", 0x33db8adef8b39bb6ull},
                      {"mobiles", 0xeac1a928427d8e04ull},
                      {"arrival", 0x438b7bd19b2bad97ull},
                      {"retries", 0x5f242d39c2422be4ull},
                      {"accountant", 0xd3773de01d8b202eull},
                      {"interconnect", 0xcfdca1df88bc7c52ull},
                      {"load", 0xaa649b3b0e616043ull},
                      {"wired", 0x34966a6a76150267ull},
                      {"engine", 0x725e0c53c7ad7ffbull},
                      {"telemetry", 0x7169fcb1a9658ff1ull},
                      {"fault", 0xaf63bd4c8601b7dfull},
                  });
}

TEST(EnginePinsTest, HexSnapshotSections) {
  core::HexCellularSystem sys(hex_config(false, true));
  sys.run_for(150.0);
  expect_checksums(section_checksums(sys), Checksums{
                      {"config", 0x665137325a92432bull},
                      {"simulator", 0x0bd69441b7f5136dull},
                      {"rngs", 0xb6f1539eb8cfd601ull},
                      {"cells", 0xa6fcf532f412b5baull},
                      {"stations", 0x17622a418353332cull},
                      {"metrics", 0x9a7be35bec9ced08ull},
                      {"mobiles", 0x6cbe7a97f08140d4ull},
                      {"arrival", 0x03979c2454d9a79eull},
                      {"accountant", 0xb4ddbde26d9d8a4aull},
                      {"engine", 0x5f8fda291e9c0b15ull},
                      {"telemetry", 0x90c8a75ca64e53b4ull},
                      {"fault", 0xaf63bd4c8601b7dfull},
                  });
}

TEST(EnginePinsTest, LinearTimeVaryingFaultedSnapshotSections) {
  core::TimeVaryingParams p;
  p.voice_ratio = 0.6;
  p.seed = 29;
  core::SystemConfig cfg = core::time_varying_config(p);
  cfg.time_origin = 9.0 * sim::kHour;  // inside the morning busy period
  cfg.telemetry.enabled = true;
  cfg.telemetry.time_admissions = false;
  cfg.fault = pin_faults();
  core::CellularSystem sys(cfg);
  sys.run_for(300.0);

  std::ostringstream os(std::ios::binary);
  sys.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  {
    // The pin only covers the retry and fault layouts if they hold data.
    const snapshot::Reader reader(is);
    auto retries = reader.open("retries");
    retries.u64();
    EXPECT_GT(retries.u32(), 0u) << "no pending retries at the save";
    EXPECT_GT(reader.open("fault").remaining(), 8u) << "no fault timelines";
  }
  is.clear();
  is.seekg(0);
  expect_checksums(file_checksums(is), Checksums{
                      {"config", 0x0941032c873e764aull},
                      {"simulator", 0xdc97734f04c77930ull},
                      {"rngs", 0xc4d8c390937e091dull},
                      {"cells", 0x36c5d58c6d92ec41ull},
                      {"stations", 0xce816e4ec6518339ull},
                      {"metrics", 0x2a53efe2ebe2296bull},
                      {"traces", 0x4d25767f9dce13f5ull},
                      {"mobiles", 0xbf2c97e92d34a27eull},
                      {"arrival", 0xe287e5e2be5cdb59ull},
                      {"retries", 0xf99d836af19dd1daull},
                      {"accountant", 0x7fe8d086cc4588adull},
                      {"interconnect", 0x3eec17d96116a379ull},
                      {"load", 0xb8f8db2a48b07bbcull},
                      {"wired", 0x4dfa4cffd1f7979full},
                      {"engine", 0x9a91895aac40c167ull},
                      {"telemetry", 0xbac7f28f064b4678ull},
                      {"fault", 0xdbaf900c245d8d7eull},
                  });
}

TEST(EnginePinsTest, ShardedCheckpointSections) {
  for (const int shards : {1, 3}) {
    const std::string path = ::testing::TempDir() + "engine_pins_ckpt_" +
                             std::to_string(shards);
    sim::sharded::ShardedConfig cfg = torus_config(shards, true);
    cfg.checkpoint_every_s = 100.0;
    cfg.checkpoint_path = path;
    sim::sharded::ShardedExecutor(cfg).run();
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good()) << path;
    SCOPED_TRACE(std::to_string(shards) + " shards");
    expect_checksums(file_checksums(is), Checksums{
                        {"config", 0x462bb3a7b5369c50ull},
                        {"slot", 0xb77c84076191a000ull},
                        {"cells", 0x31707b247b2a6321ull},
                        {"calendar", 0x82ac9c01845ad536ull},
                        {"accountant", 0x25ed83440464d637ull},
                        {"telemetry", 0x38fd7423bbb0f197ull},
                    });
    is.close();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace pabr
