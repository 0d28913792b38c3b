// Resume determinism (invariant I10) through the two stateful ladders a
// snapshot must not drop: the §5.3 blocked-call retry ladder (a pending
// re-request event mid-wait) and fault injection (snapshot taken inside
// a ScriptedOutage window, plus memoized stochastic outage timelines and
// their RNG stream positions). In every case the resumed run's digest
// must equal the uninterrupted run's bitwise.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "audit/differential.h"
#include "core/system.h"
#include "snapshot/format.h"

namespace pabr::core {
namespace {

traffic::ConnectionRequest request_at(traffic::ConnectionId id, double pos_km,
                                      int dir, double speed_kmh) {
  traffic::ConnectionRequest r;
  r.id = id;
  r.cell = static_cast<geom::CellId>(pos_km);
  r.position_km = pos_km;
  r.direction = dir;
  r.speed_kmh = speed_kmh;
  r.service = traffic::ServiceClass::kVoice;
  r.lifetime_s = 1e6;
  return r;
}

// Saves `sys` at its current clock, loads the snapshot, and returns the
// loaded twin (also handing back the raw bytes for section checks).
std::unique_ptr<CellularSystem> reload(CellularSystem& sys,
                                       std::string* bytes = nullptr) {
  std::ostringstream os(std::ios::binary);
  sys.save(os);
  if (bytes != nullptr) *bytes = os.str();
  std::istringstream is(os.str(), std::ios::binary);
  return CellularSystem::load(is);
}

std::uint64_t finish_digest(CellularSystem& sys, sim::Time end) {
  sys.run_until(end);
  sys.audit_invariants();
  return audit::trajectory_digest(sys);
}

TEST(SnapshotFaultResumeTest, ResumeMidRetryWaitKeepsTheLadder) {
  SystemConfig cfg;
  cfg.policy = admission::PolicyKind::kStatic;
  cfg.static_g = 99.5;  // only 0.5 BU admissible: every request blocks
  cfg.workload.arrival_rate_per_cell = 0.0;
  cfg.retry.enabled = true;
  cfg.retry.giveup_step = 0.0;  // retry with probability 1, forever

  const auto submit = [](CellularSystem& sys) {
    sys.submit_request(request_at(1, 5.5, +1, 36.0));
    sys.submit_request(request_at(2, 3.25, -1, 54.0));
  };

  CellularSystem straight(cfg);
  submit(straight);
  const std::uint64_t expected = finish_digest(straight, 30.0);
  EXPECT_EQ(straight.system_status().blocks,
            straight.system_status().requests);

  CellularSystem sys(cfg);
  submit(sys);
  sys.run_until(2.5);  // both 5 s retry waits are pending
  std::string bytes;
  const auto resumed = reload(sys, &bytes);

  // The snapshot really carried pending retries: the "retries" section
  // holds the token counter (8) + count (4) + at least one entry.
  std::istringstream is(bytes, std::ios::binary);
  const snapshot::Reader reader(is);
  ASSERT_TRUE(reader.has_section("retries"));
  snapshot::Decoder d = reader.open("retries");
  d.u64();  // next token
  EXPECT_EQ(d.u32(), 2u) << "expected both retry waits pending at t=2.5";

  EXPECT_EQ(finish_digest(*resumed, 30.0), expected);
}

SystemConfig faulty_config() {
  SystemConfig cfg;
  cfg.seed = 11;
  cfg.policy = admission::PolicyKind::kAc2;
  cfg.workload.arrival_rate_per_cell = 0.3;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  return cfg;
}

TEST(SnapshotFaultResumeTest, ResumeInsideScriptedOutageWindow) {
  SystemConfig cfg = faulty_config();
  fault::ScriptedOutage station;
  station.kind = fault::ScriptedOutage::Kind::kStation;
  station.a = 4;
  station.from = 100.0;
  station.until = 200.0;
  fault::ScriptedOutage link;
  link.kind = fault::ScriptedOutage::Kind::kLink;
  link.a = 6;
  link.b = 7;
  link.from = 120.0;
  link.until = 260.0;
  cfg.fault.outages = {station, link};

  CellularSystem straight(cfg);
  const std::uint64_t expected = finish_digest(straight, 400.0);

  CellularSystem sys(cfg);
  sys.run_until(150.0);  // inside both outage windows
  std::string bytes;
  const auto resumed = reload(sys, &bytes);
  std::istringstream is(bytes, std::ios::binary);
  const snapshot::Reader reader(is);
  ASSERT_TRUE(reader.has_section("fault"));
  EXPECT_EQ(finish_digest(*resumed, 400.0), expected);
}

TEST(SnapshotFaultResumeTest, ResumeKeepsStochasticTimelinesAndBackoff) {
  // Stochastic link + station outages and lossy messaging drive the
  // timeout/backoff ladder constantly; the memoized timelines (flip
  // lists, RNG positions, coverage horizons) must survive the restore.
  SystemConfig cfg = faulty_config();
  cfg.fault.link_mtbf_s = 300.0;
  cfg.fault.link_mttr_s = 40.0;
  cfg.fault.station_mtbf_s = 900.0;
  cfg.fault.station_mttr_s = 60.0;
  cfg.fault.message_loss = 0.05;

  CellularSystem straight(cfg);
  const std::uint64_t expected = finish_digest(straight, 500.0);

  for (const double t_snap : {90.0, 250.0, 410.0}) {
    CellularSystem sys(cfg);
    sys.run_until(t_snap);
    const auto resumed = reload(sys);
    EXPECT_EQ(finish_digest(*resumed, 500.0), expected)
        << "snapshot at t=" << t_snap;
  }
}

}  // namespace
}  // namespace pabr::core
