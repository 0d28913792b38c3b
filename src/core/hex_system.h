// HexCellularSystem — the paper's §7 future work as a library feature:
// "We plan to evaluate our scheme in more realistic and general
// environments with two-dimensional cellular structures."
//
// A full admission/reservation/hand-off simulator over a hexagonal grid
// (paper Fig. 2(b)): Poisson arrivals per cell, direction-persistent
// random-walk mobility (mobility::HexMotion), per-cell hand-off
// estimation functions and T_est controllers, Eq. 5/6 reservation over
// the six neighbours, and the same AdmissionPolicy objects as the 1-D
// road — AC1/AC2/AC3/static/NS run unmodified.
//
// §5.2.3 predicts "the complexity increase could be larger for two-
// dimensional cellular structures": here AC2 costs |A_0|+1 = 7 B_r
// computations per admission, making AC3's selective participation far
// more valuable — bench/ext_2d_load_sweep quantifies it.
#pragma once

#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "admission/ns_policy.h"
#include "admission/policy.h"
#include "core/cell_core.h"
#include "geom/hex_topology.h"
#include "hoef/estimator.h"
#include "mobility/hex_motion.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "traffic/workload.h"

namespace pabr::core {

struct HexSystemConfig {
  // Grid (Fig. 2(b)); wrap = torus to avoid border effects like the 1-D
  // ring of §5.1.
  int rows = 4;
  int cols = 6;
  bool wrap = true;
  double capacity_bu = 100.0;

  // Admission control (same policies as the road system).
  admission::PolicyKind policy = admission::PolicyKind::kAc3;
  double static_g = 10.0;
  admission::NsConfig ns;

  // Reservation / estimation.
  double phd_target = 0.01;
  sim::Duration t_start = 1.0;
  hoef::EstimatorConfig hoef;

  // Workload (A2/A3/A5 transplanted to 2-D).
  double arrival_rate_per_cell = 0.5;  ///< connections/s/cell
  double voice_ratio = 1.0;
  sim::Duration mean_lifetime_s = 120.0;
  double speed_min_kmh = 80.0;
  double speed_max_kmh = 120.0;

  // Mobility over the grid.
  mobility::HexMotionConfig motion;

  /// Serve recompute_reservation from the incremental contribution caches
  /// (bit-identical to the from-scratch rescan; see reservation/engine.h).
  bool incremental_reservation = true;

  /// Audit cadence: run the full invariant sweep (audit_invariants) after
  /// every Nth handled simulation event. 0 disables the hook (see
  /// SystemConfig::audit_every).
  int audit_every = 0;

  /// Telemetry & trace collection (see SystemConfig::telemetry).
  telemetry::TelemetryConfig telemetry;

  /// Deterministic fault injection (see SystemConfig::fault; same
  /// byte-identical-when-disabled contract).
  fault::FaultConfig fault;

  std::uint64_t seed = 1;

  /// Offered load per cell, Eq. (7).
  double offered_load() const {
    return arrival_rate_per_cell * traffic::mean_bandwidth(voice_ratio) *
           mean_lifetime_s;
  }
  /// Sets the arrival rate from a target offered load.
  void set_offered_load(double load);
  /// The per-cell core over cells [first, end) of `grid` (the serial
  /// system's whole grid, or one shard's range). The config must outlive
  /// the core.
  CellCoreConfig core_config(const geom::HexTopology& grid,
                             geom::CellId first, geom::CellId end) const;
};

class HexCellularSystem final : public admission::AdmissionContext {
 public:
  explicit HexCellularSystem(HexSystemConfig config);

  void run_for(sim::Duration duration);
  /// Advances to the absolute sim time `t` (>= now()); resumed runs use
  /// this so they stop at exactly the clock value of the uninterrupted
  /// run (see CellularSystem::run_until).
  void run_until(sim::Time t);
  sim::Time now() const { return simulator_.now(); }
  void reset_metrics();

  // ---- AdmissionContext ---------------------------------------------------
  double capacity(geom::CellId cell) const override;
  double used_bandwidth(geom::CellId cell) const override;
  const std::vector<geom::CellId>& adjacent(geom::CellId cell) const override;
  double recompute_reservation(geom::CellId cell) override;
  double current_reservation(geom::CellId cell) const override;
  /// Reference from-scratch rescan (no caches, no side effects, not
  /// counted in N_calc) — must always equal recompute_reservation (also
  /// in degraded mode: same floors, same reachability verdicts).
  double scratch_reservation(geom::CellId cell) override;
  /// Fault-aware backhaul probe (AC2/AC3 degraded fallback); always true
  /// without fault injection.
  bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor) override;

  // ---- Fault injection (src/fault/) --------------------------------------
  /// See CellularSystem::faults_on.
  bool faults_on() const { return core_.faults_on(); }
  fault::FaultInjector* fault_injector() { return core_.fault_injector(); }

  // ---- Metrics --------------------------------------------------------------
  const CellMetrics& cell_metrics(geom::CellId cell) const {
    return core_.metrics(cell);
  }
  SystemStatus system_status() const {
    return core_.system_status(simulator_.now());
  }

  // ---- Telemetry (src/telemetry/) ----------------------------------------
  telemetry::Collector& telemetry() { return core_.telemetry(); }
  const telemetry::Collector& telemetry() const { return core_.telemetry(); }
  /// Snapshot with polled gauges synced (see CellularSystem).
  telemetry::MetricsSnapshot telemetry_snapshot();

  // ---- Introspection ----------------------------------------------------------
  const geom::HexTopology& grid() const { return grid_; }
  const HexSystemConfig& config() const { return config_; }
  Cell& cell(geom::CellId id) { return core_.cell(id); }
  BaseStation& base_station(geom::CellId id) { return core_.station(id); }
  std::size_t active_connections() const { return mobiles_.size(); }

  /// Test hook: injects one connection request now (cell, service,
  /// speed); returns whether it was admitted.
  bool submit_request(geom::CellId cell, traffic::ServiceClass service,
                      double speed_kmh, sim::Duration lifetime_s);

  // ---- Invariant audit (src/audit/system_audit.cc) ------------------------
  /// Full structural invariant sweep (see CellularSystem::audit_invariants
  /// — same I1-I8 catalogue minus the wired/soft-hand-off invariants the
  /// hex system has no state for). Throws InvariantError on violation.
  void audit_invariants();

  // ---- Snapshot (src/core/hex_system_snapshot.cc) -------------------------
  /// Serializes the complete simulation state so that load() +
  /// run_for(rest) is bitwise identical to the uninterrupted run
  /// (invariant I10). Only legal between events.
  void save(std::ostream& os);
  static std::unique_ptr<HexCellularSystem> load(std::istream& is);

 private:
  struct HexMobile {
    traffic::ConnectionId id = 0;
    traffic::ServiceClass service = traffic::ServiceClass::kVoice;
    geom::CellId cell = geom::kNoCell;
    geom::CellId prev = geom::kNoCell;  ///< == cell when started here
    sim::Time entered_at = 0.0;
    double speed_kmh = 0.0;
    sim::EventHandle expiry;
    sim::EventHandle crossing;

    traffic::Bandwidth bandwidth() const {
      return traffic::bandwidth_of(service);
    }
  };

  void schedule_next_arrival();
  /// Books the arrival event at absolute time `t`. The exponential gap is
  /// drawn at scheduling time but every request attribute is drawn when
  /// the event fires, so a snapshot load re-creates the pending arrival
  /// exactly by replaying the saved fire time.
  void schedule_arrival_at(sim::Time t);
  /// The snapshot sections after "config", in file order, both
  /// directions (Doc = snapshot::Writer, or a const snapshot::Reader
  /// applied onto the freshly constructed system).
  template <class Doc>
  void snapshot_io(Doc& doc);
  bool handle_request(geom::CellId cell, traffic::ServiceClass service,
                      double speed_kmh, sim::Duration lifetime_s);
  void schedule_crossing(HexMobile& m);
  void handle_crossing(traffic::ConnectionId id);
  void handle_expiry(traffic::ConnectionId id);
  void record_bu(geom::CellId cell);
  /// The dense per-connection record the reservation hot loop reads.
  traffic::ReservationView reservation_view(const HexMobile& m) const;

  /// Per-event audit hook (no-op unless enabled via config_.audit_every).
  void maybe_audit() {
    if (config_.audit_every > 0 &&
        ++events_since_audit_ >= config_.audit_every) {
      events_since_audit_ = 0;
      audit_invariants();
    }
  }

  HexSystemConfig config_;
  sim::RngFactory rng_factory_;  ///< one factory, shared by all streams
  sim::Simulator simulator_;
  geom::HexTopology grid_;
  mobility::HexMotion motion_;
  sim::Rng arrival_rng_;
  sim::Rng movement_rng_;
  /// Cells [0, n): radio state, base stations, metrics, Eq. (5)/(6),
  /// accountant, policy, telemetry and faults.
  CellCore core_;
  // Shorthands for the core's telemetry collector and instruments.
  telemetry::Collector& telemetry_ = core_.telemetry();
  const telemetry::SimCounters& tel_ = core_.tel();
  std::unordered_map<traffic::ConnectionId, HexMobile> mobiles_;
  /// Handle of the one pending Poisson-arrival event (snapshot needs its
  /// fire time; inert when the arrival rate is zero).
  sim::EventHandle next_arrival_;
  traffic::ConnectionId next_id_ = 1;
  int events_since_audit_ = 0;
};

}  // namespace pabr::core
