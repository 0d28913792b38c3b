// CellularSystem — the full simulator of the paper's §5 evaluation
// environment: a linear road of cells with Poisson connection arrivals,
// admission control with predictive/adaptive bandwidth reservation,
// constant-velocity mobiles, hand-offs (with drops on insufficient
// capacity), hand-off event quadruplet collection, and metric recording.
//
// It also implements admission::AdmissionContext: the admission policies
// call back into the system for occupancy and on-demand B_r computation.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "admission/ns_policy.h"
#include "admission/policy.h"
#include "backhaul/network.h"
#include "core/cell_core.h"
#include "geom/linear_topology.h"
#include "hoef/estimator.h"
#include "mobility/mobile.h"
#include "reservation/test_window.h"
#include "sim/series.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "traffic/profiles.h"
#include "traffic/retry.h"
#include "traffic/workload.h"
#include "wired/backbone.h"

namespace pabr::core {

struct SystemConfig {
  // Topology (assumption A1).
  int num_cells = 10;
  double cell_diameter_km = 1.0;
  /// Join the border cells into a ring (§5.1); Table 3 uses an open road.
  bool ring = true;
  /// C(i) = C for all i (assumption A6).
  double capacity_bu = 100.0;
  /// CDMA-style soft capacity for hand-offs (§7 future work): hand-offs
  /// may stretch occupancy to C * (1 + margin); new calls still see C.
  double soft_capacity_margin = 0.0;

  /// Adaptive-QoS integration (§1): a video hand-off that cannot get its
  /// full 4 BUs in the new cell is degraded to `video_min_bu` instead of
  /// dropped, and bandwidth reservation is computed from the minimum QoS.
  bool adaptive_qos = false;
  traffic::Bandwidth video_min_bu = 2;

  /// Wired backbone modelling (§2 / §7 future work): when set, every
  /// connection also occupies its serving BS's access link and the shared
  /// MSC uplink; admission requires wired capacity net of the access
  /// link's reservation target (kept equal to the cell's B_r), and a
  /// hand-off is dropped if the new access link cannot carry it.
  std::optional<wired::BackboneConfig> wired;

  /// CDMA soft hand-off (§7 future work): a mobile within this distance
  /// of the boundary pre-allocates bandwidth in the next cell and holds
  /// both legs until the crossing (make-before-break). A successful
  /// pre-allocation makes the hand-off drop-proof; a failed one falls
  /// back to the ordinary break-before-make attempt at the boundary.
  /// 0 disables the mechanism.
  double soft_handoff_zone_km = 0.0;

  // Admission control.
  admission::PolicyKind policy = admission::PolicyKind::kAc3;
  double static_g = 10.0;  ///< G for the static baseline
  /// Parameters of the NS-DCA baseline (used only when policy == kNsDca).
  admission::NsConfig ns;

  // Reservation / estimation parameters (§5.1).
  double phd_target = 0.01;
  sim::Duration t_start = 1.0;
  /// T_est adjustment step rule (§4.2 ablation; the paper uses kFixed).
  reservation::StepPolicy t_est_step = reservation::StepPolicy::kFixed;
  hoef::EstimatorConfig hoef;  ///< T_int, N_quad, weights, ...

  /// Fraction of mobiles whose travel direction is known to the network
  /// (the paper's §7 ITS/GPS extension: for such mobiles the estimation
  /// function only estimates the sojourn time — the next cell is known).
  double known_route_fraction = 0.0;

  // Workload (assumptions A2-A5).
  traffic::WorkloadConfig workload;
  traffic::RetryConfig retry;

  // Optional §5.3 time variation. When set, `load_profile` modulates the
  // arrival rate so the original offered load follows the profile, and
  // `speed_profile` drives the sampled speed range [S-half, S+half].
  std::optional<traffic::DailyProfile> load_profile;
  std::optional<traffic::DailyProfile> speed_profile;
  double speed_half_range_kmh = traffic::kPaperSpeedHalfRange;

  /// Serve recompute_reservation from the incremental per-(neighbor ->
  /// target) contribution caches (bit-identical to the from-scratch
  /// rescan; see reservation/engine.h). Off forces the scratch path on
  /// every call — only useful for the equivalence tests and the
  /// bench/micro_admission comparison.
  bool incremental_reservation = true;

  // Backhaul model.
  backhaul::InterconnectKind interconnect =
      backhaul::InterconnectKind::kFullyConnected;

  // Trace recording (Figs. 10-11): cells whose T_est / B_r / P_HD are
  // recorded as time series.
  std::vector<geom::CellId> traced_cells;

  /// Audit cadence: run the full invariant sweep (audit_invariants) after
  /// every Nth handled simulation event. 0 disables the hook.
  int audit_every = 0;

  /// Telemetry & trace collection (telemetry/telemetry.h). Default off.
  /// Purely observational: trajectories are byte-identical with
  /// telemetry on or off.
  telemetry::TelemetryConfig telemetry;

  /// Deterministic fault injection (fault/fault.h). Default disabled.
  /// When disabled the fault branches are never taken and no injector RNG
  /// stream is created, so trajectories are byte-identical to runs without
  /// fault support — the same contract as telemetry.
  fault::FaultConfig fault;

  /// Simulation clock value at construction. The system behaves as if it
  /// had been created at this instant: the event clock starts here and the
  /// time-weighted metric windows are anchored here. Used by the
  /// metamorphic time-origin-shift transform (DESIGN.md §14, M3) — a run
  /// whose scripted events are all shifted by Δ and whose time_origin is Δ
  /// must reproduce the original run exactly.
  sim::Time time_origin = 0.0;

  std::uint64_t seed = 1;
};

/// Per-cell trace bundle (only for cells listed in traced_cells).
struct CellTrace {
  sim::Series t_est{"t_est"};
  sim::Series br{"br"};
  sim::Series phd{"phd"};
};

class CellularSystem final : public admission::AdmissionContext {
 public:
  explicit CellularSystem(SystemConfig config);

  // ---- Run control ------------------------------------------------------
  void run_for(sim::Duration duration);
  /// Advances to the absolute sim time `t` (>= now()). Resumed runs use
  /// this rather than run_for so they stop at exactly the same clock
  /// value as the uninterrupted run (now() + (end - now()) can differ
  /// from `end` by an ulp, which the bitwise digest would notice).
  void run_until(sim::Time t);
  sim::Time now() const { return simulator_.now(); }

  /// Zeroes all probability/mean accumulators (used after a warm-up phase)
  /// while keeping learned state: estimation functions, T_est, and the
  /// radio occupancy all persist.
  void reset_metrics();

  // ---- AdmissionContext (called by the policies) -------------------------
  double capacity(geom::CellId cell) const override;
  double used_bandwidth(geom::CellId cell) const override;
  const std::vector<geom::CellId>& adjacent(geom::CellId cell) const override;
  double recompute_reservation(geom::CellId cell) override;
  double current_reservation(geom::CellId cell) const override;
  /// Reference from-scratch rescan (no caches, no side effects, not
  /// counted in N_calc) — must always equal recompute_reservation. Under
  /// fault injection it substitutes the same degraded floor for
  /// unreachable neighbours as the production path, so the equality
  /// holds in degraded mode too.
  double scratch_reservation(geom::CellId cell) override;
  /// Fault-aware backhaul probe (AC2/AC3 degraded fallback); always true
  /// without fault injection.
  bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor) override;

  // ---- Metrics ------------------------------------------------------------
  const CellMetrics& cell_metrics(geom::CellId cell) const {
    return core_.metrics(cell);
  }
  CellStatus cell_status(geom::CellId cell) const;
  SystemStatus system_status() const;
  const OfferedLoadTracker& offered_load() const { return load_tracker_; }
  const CellTrace* trace(geom::CellId cell) const;

  // ---- Telemetry (src/telemetry/) ----------------------------------------
  telemetry::Collector& telemetry() { return core_.telemetry(); }
  const telemetry::Collector& telemetry() const { return core_.telemetry(); }
  /// Metrics snapshot with the polled gauges (N_calc, signalling message
  /// totals, active connections, trace-buffer health) synced first.
  /// Empty when telemetry is disabled.
  telemetry::MetricsSnapshot telemetry_snapshot();

  // ---- Introspection ------------------------------------------------------
  const geom::LinearTopology& road() const { return road_; }
  const SystemConfig& config() const { return config_; }
  Cell& cell(geom::CellId id) { return core_.cell(id); }
  const Cell& cell(geom::CellId id) const { return core_.cell(id); }
  BaseStation& base_station(geom::CellId id) { return core_.station(id); }
  const BaseStation& base_station(geom::CellId id) const {
    return core_.station(id);
  }
  const backhaul::InterconnectModel& interconnect() const {
    return interconnect_;
  }
  const backhaul::SignalingAccountant& accountant() const {
    return core_.accountant();
  }
  std::size_t active_connections() const { return mobiles_.size(); }
  std::uint64_t events_executed() const {
    return simulator_.events_executed();
  }

  // ---- Fault injection (src/fault/) --------------------------------------
  /// True when this run enabled fault injection
  /// (SystemConfig::fault.enabled).
  bool faults_on() const { return core_.faults_on(); }
  /// The run's injector (null without fault injection). Tests use this to
  /// query the sampled link/station timelines the simulation saw.
  fault::FaultInjector* fault_injector() { return core_.fault_injector(); }

  /// Direct injection hooks used by unit/integration tests: bypasses the
  /// Poisson workload and submits one request now. Returns whether it was
  /// admitted.
  bool submit_request(const traffic::ConnectionRequest& request);

  // ---- Invariant audit (src/audit/system_audit.cc) ------------------------
  /// Full structural invariant sweep over the live system — the I1-I8
  /// catalogue of audit/invariants.h. Throws InvariantError naming the
  /// first violated invariant. Trajectory-transparent: nothing observable
  /// by the simulation (occupancy, reservations, metrics, RNG streams)
  /// changes. SystemConfig::audit_every drives it per event.
  void audit_invariants();

  // ---- Snapshot (src/core/system_snapshot.cc, format in src/snapshot/) ----
  /// Serializes the complete simulation state — event calendar, cells,
  /// mobiles, estimators, metrics, RNG streams, telemetry, faults — so
  /// that load() + run_for(rest) is bitwise identical to the
  /// uninterrupted run (audit invariant I10). Only legal between events
  /// (i.e. from outside run_for).
  void save(std::ostream& os);
  static std::unique_ptr<CellularSystem> load(std::istream& is);

 private:
  struct MobileRecord {
    mobility::Mobile m;
    sim::EventHandle expiry;
    sim::EventHandle crossing;
    sim::EventHandle zone_entry;
    geom::CellId crossing_to = geom::kNoCell;
    double crossing_boundary_km = 0.0;
    /// Soft hand-off: cell holding the pre-allocated second leg and the
    /// bandwidth granted there.
    geom::CellId dual_cell = geom::kNoCell;
    traffic::Bandwidth dual_bw = 0;

    bool dual() const { return dual_cell != geom::kNoCell; }
  };

  void schedule_next_arrival();
  /// Books the arrival event at absolute time `t` (split out of
  /// schedule_next_arrival so a snapshot load can re-create the pending
  /// arrival at its saved fire time).
  void schedule_arrival_at(sim::Time t);
  bool handle_arrival(traffic::ConnectionRequest request);
  void maybe_schedule_retry(traffic::ConnectionRequest request);
  /// Books the retry event for `next` at absolute time `when` under the
  /// given token and tracks it in pending_retries_ (shared by the live
  /// path, which allocates a fresh token, and snapshot load, which
  /// replays the saved one).
  void schedule_retry_event(std::uint64_t token, sim::Time when,
                            traffic::ConnectionRequest next);
  /// The snapshot sections after "config", in file order, both
  /// directions (Doc = snapshot::Writer, or a const snapshot::Reader
  /// applied onto the freshly constructed system).
  template <class Doc>
  void snapshot_io(Doc& doc);
  void start_connection(const traffic::ConnectionRequest& request);
  void schedule_crossing(MobileRecord& rec);
  void handle_crossing(traffic::ConnectionId id);
  void handle_zone_entry(traffic::ConnectionId id);
  void handle_expiry(traffic::ConnectionId id);
  void terminate(MobileRecord& rec, bool cancel_expiry, bool cancel_crossing);
  /// Bandwidth a hand-off into `dst` would be granted under the current
  /// QoS rules (full, degraded minimum, or 0 = drop).
  traffic::Bandwidth grant_for_handoff(const Cell& dst,
                                       const mobility::Mobile& m) const;

  void record_bu(geom::CellId cell);
  /// Minimum-QoS bandwidth of a connection (adaptive QoS, §1).
  traffic::Bandwidth min_bandwidth(const mobility::Mobile& m) const;
  /// The dense per-connection record the reservation hot loop reads,
  /// snapshotting the mobile's current cell-entry state. `attached_bw` is
  /// the bandwidth being attached (reservation uses the min-QoS bandwidth
  /// instead when adaptive QoS is on, §1).
  traffic::ReservationView reservation_view(
      const mobility::Mobile& m, traffic::Bandwidth attached_bw) const;
  /// The cell a mobile in `cell` moving in `direction` will enter next
  /// (kNoCell past an open border).
  geom::CellId next_cell_in_direction(geom::CellId cell, int direction) const;

  /// Per-event audit hook, called at the end of every event handler:
  /// runs the full sweep every config_.audit_every events.
  void maybe_audit() {
    if (config_.audit_every > 0 &&
        ++events_since_audit_ >= config_.audit_every) {
      events_since_audit_ = 0;
      audit_invariants();
    }
  }

  SystemConfig config_;
  sim::RngFactory rng_factory_;  ///< one factory, shared by all streams
  sim::Simulator simulator_;
  geom::LinearTopology road_;
  backhaul::InterconnectModel interconnect_;
  traffic::WorkloadGenerator workload_;
  traffic::RetryPolicy retry_;
  sim::Rng route_rng_;  ///< decides which mobiles have known routes (§7)
  /// Cells [0, n): radio state, base stations, metrics, Eq. (5)/(6),
  /// accountant, policy, telemetry and faults.
  CellCore core_;
  // Shorthands for the core's telemetry collector and instruments.
  telemetry::Collector& telemetry_ = core_.telemetry();
  const telemetry::SimCounters& tel_ = core_.tel();
  const telemetry::FaultCounters& fault_tel_ = core_.fault_tel();
  std::unordered_map<traffic::ConnectionId, MobileRecord> mobiles_;
  /// Handle of the one pending Poisson-arrival event (snapshot needs its
  /// fire time; inert when the arrival rate is zero).
  sim::EventHandle next_arrival_;
  /// Pending §5.3 retry events keyed by a monotone token: the scheduled
  /// request travels in this map — not in the event closure — so a
  /// snapshot can serialize and re-schedule it. Erased when the retry
  /// fires (retries are never cancelled).
  struct PendingRetry {
    sim::EventHandle handle;
    traffic::ConnectionRequest request;
  };
  std::map<std::uint64_t, PendingRetry> pending_retries_;
  std::uint64_t next_retry_token_ = 1;
  std::unordered_map<geom::CellId, CellTrace> traces_;
  OfferedLoadTracker load_tracker_;
  std::unique_ptr<wired::Backbone> backbone_;  // null unless config_.wired
  sim::Counter wired_blocks_;
  sim::Counter wired_drops_;
  int events_since_audit_ = 0;

 public:
  const wired::Backbone* backbone() const { return backbone_.get(); }
  std::uint64_t wired_blocks() const { return wired_blocks_.count(); }
  std::uint64_t wired_drops() const { return wired_drops_.count(); }
};

}  // namespace pabr::core
