// Degraded-mode behavior of the simulators under deterministic fault
// injection (DESIGN.md §10): station outages gate admissions and drop
// hand-ins, unreachable neighbours push AC2/AC3 onto local decisions and
// the reservation onto the static floor, healed pairs re-sync bitwise
// (invariant I9, PABR_CHECKed by the production path itself), and with
// faults disabled every trajectory stays byte-identical to a build that
// never heard of the subsystem.
#include <gtest/gtest.h>

#include <cstdint>

#include "audit/differential.h"
#include "core/random_scenario.h"
#include "core/scenario.h"
#include "core/system.h"

namespace pabr::core {
namespace {

SystemConfig quiet_config(admission::PolicyKind policy =
                              admission::PolicyKind::kStatic) {
  SystemConfig cfg;
  cfg.policy = policy;
  cfg.static_g = 0.0;
  cfg.workload.arrival_rate_per_cell = 0.0;
  return cfg;
}

traffic::ConnectionRequest make_request(traffic::ConnectionId id,
                                        geom::CellId cell, double pos_km,
                                        int dir, double speed_kmh,
                                        double lifetime_s) {
  traffic::ConnectionRequest r;
  r.id = id;
  r.cell = cell;
  r.position_km = pos_km;
  r.direction = dir;
  r.speed_kmh = speed_kmh;
  r.service = traffic::ServiceClass::kVoice;
  r.lifetime_s = lifetime_s;
  return r;
}

fault::ScriptedOutage station_outage(geom::CellId cell, sim::Time from,
                                     sim::Time until) {
  fault::ScriptedOutage o;
  o.kind = fault::ScriptedOutage::Kind::kStation;
  o.a = cell;
  o.from = from;
  o.until = until;
  return o;
}

fault::ScriptedOutage link_outage(geom::CellId a, geom::CellId b,
                                  sim::Time from, sim::Time until) {
  fault::ScriptedOutage o;
  o.kind = fault::ScriptedOutage::Kind::kLink;
  o.a = a;
  o.b = b;
  o.from = from;
  o.until = until;
  return o;
}

std::uint64_t counter_value(const telemetry::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

TEST(FaultSystemTest, StationDownBlocksNewAdmissions) {
  SystemConfig cfg = quiet_config();
  cfg.fault.enabled = true;
  cfg.fault.outages = {station_outage(3, 0.0, 10.0)};
  CellularSystem sys(cfg);

  // During the outage: refused before any admission test, no state left.
  EXPECT_FALSE(sys.submit_request(make_request(1, 3, 3.5, +1, 0.0, 100.0)));
  EXPECT_DOUBLE_EQ(sys.used_bandwidth(3), 0.0);
  EXPECT_EQ(sys.active_connections(), 0u);
  EXPECT_EQ(sys.cell_metrics(3).pcb.hits(), 1u);

  // Other cells are unaffected, and cell 3 recovers after the heal.
  EXPECT_TRUE(sys.submit_request(make_request(2, 5, 5.5, +1, 0.0, 100.0)));
  sys.run_for(11.0);
  EXPECT_TRUE(sys.submit_request(make_request(3, 3, 3.5, +1, 0.0, 100.0)));
  EXPECT_DOUBLE_EQ(sys.used_bandwidth(3), 1.0);
}

TEST(FaultSystemTest, StationDownDropsHandins) {
  SystemConfig cfg = quiet_config();
  cfg.fault.enabled = true;
  cfg.fault.outages = {station_outage(4, 10.0, 30.0)};
  CellularSystem sys(cfg);

  // At 3.5 km moving +1 at 100 km/h the 4.0 km boundary is crossed at
  // t = 18 s — inside cell 4's outage window. The hand-in is dropped.
  sys.submit_request(make_request(1, 3, 3.5, +1, 100.0, 1000.0));
  sys.run_for(20.0);
  EXPECT_EQ(sys.active_connections(), 0u);
  EXPECT_DOUBLE_EQ(sys.used_bandwidth(3), 0.0);
  EXPECT_DOUBLE_EQ(sys.used_bandwidth(4), 0.0);
  EXPECT_EQ(sys.cell_metrics(4).phd.hits(), 1u);
}

TEST(FaultSystemTest, UnreachableNeighborFallsBackAndSubstitutesFloor) {
  // A live AC3 workload with one scripted backhaul outage: while the
  // 3<->4 link is down, admissions in those cells decide AC1-locally and
  // the reservation substitutes the static floor for the severed p_h
  // terms; after the heal the stale pair caches re-sync (bitwise audited
  // by the production path — a divergence would throw, failing the test).
  StationaryParams p;
  p.offered_load = 120.0;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = 7;
  SystemConfig cfg = stationary_config(p);
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace = false;
  cfg.fault.enabled = true;
  cfg.fault.outages = {link_outage(3, 4, 20.0, 40.0)};
  CellularSystem sys(cfg);
  sys.run_for(120.0);
  sys.audit_invariants();

  const telemetry::MetricsSnapshot snap = sys.telemetry_snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_GT(counter_value(snap, "fault.ac_local_fallbacks"), 0u);
  EXPECT_GT(counter_value(snap, "fault.floor_substitutions"), 0u);
  EXPECT_GT(counter_value(snap, "fault.pair_resyncs"), 0u);
  EXPECT_GT(counter_value(snap, "ac3.fallback_local"), 0u);
}

TEST(FaultSystemTest, RetriesRecoverLossAndAreCounted) {
  // Heavy per-message loss but a generous retry budget: most exchanges
  // still deliver (0.6^5 residual failure), and the retry/timeout
  // counters observe the ladder.
  StationaryParams p;
  p.offered_load = 100.0;
  p.policy = admission::PolicyKind::kAc3;
  p.seed = 11;
  SystemConfig cfg = stationary_config(p);
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace = false;
  cfg.fault.enabled = true;
  cfg.fault.message_loss = 0.4;
  cfg.fault.max_retries = 4;
  CellularSystem sys(cfg);
  sys.run_for(60.0);
  sys.audit_invariants();

  const telemetry::MetricsSnapshot snap = sys.telemetry_snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_GT(counter_value(snap, "fault.retries"), 0u);
  // Identical reruns reproduce the identical counter values — the fault
  // processes are part of the deterministic trajectory.
  CellularSystem again(cfg);
  again.run_for(60.0);
  const telemetry::MetricsSnapshot snap2 = again.telemetry_snapshot();
  EXPECT_EQ(counter_value(snap, "fault.retries"),
            counter_value(snap2, "fault.retries"));
  EXPECT_EQ(counter_value(snap, "fault.timeouts"),
            counter_value(snap2, "fault.timeouts"));
}

TEST(FaultSystemTest, DisabledFaultConfigIsInert) {
  // Every fault knob set — but enabled = false: the trajectory must be
  // byte-identical to a config that never mentions faults at all.
  const core::ScenarioSpec plain = core::random_scenario(21);
  core::ScenarioSpec armed = plain;
  fault::FaultConfig& f = armed.hex ? armed.grid.fault : armed.linear.fault;
  f.message_loss = 0.5;
  f.link_mtbf_s = 50.0;
  f.station_mtbf_s = 80.0;
  f.outages = {station_outage(0, 0.0, 1e9)};
  f.enabled = false;
  EXPECT_EQ(audit::run_scenario_digest(plain, true, 0),
            audit::run_scenario_digest(armed, true, 0));
}

TEST(FaultSystemTest, FaultTrajectoriesAreIncrementalScratchEqual) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const core::ScenarioSpec spec = core::random_scenario(seed, true);
    EXPECT_EQ(audit::run_scenario_digest(spec, true, 4),
              audit::run_scenario_digest(spec, false, 4))
        << spec.summary();
  }
}

}  // namespace
}  // namespace pabr::core
