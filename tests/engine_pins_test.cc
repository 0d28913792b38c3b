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
//     fixed instant (the header's git_sha/build_type are ignored).
#include <gtest/gtest.h>

#include <cstdint>
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

template <class System>
Checksums section_checksums(System& sys) {
  std::ostringstream os(std::ios::binary);
  sys.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  const snapshot::Reader reader(is);
  Checksums out;
  for (const auto& s : reader.sections()) out.emplace_back(s.name, s.checksum);
  return out;
}

void expect_checksums(const Checksums& got, const Checksums& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "section order at " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "section " << want[i].first;
  }
}

sim::sharded::ShardedResult torus_run(int shards, bool faults) {
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
  sim::sharded::ShardedExecutor exec(cfg);
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

}  // namespace
}  // namespace pabr
