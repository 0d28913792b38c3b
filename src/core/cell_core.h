// CellCore — the per-cell reservation/admission machinery of the paper,
// implemented once for a contiguous cell range [first, end).
//
// The paper defines one mechanism per cell: the Eq. (5)/(6) target
// reservation over the cell's adjacent set, the adaptive T_est window of
// §4.2 and the AC1-AC3 admission tests of §4.3. Every engine in this
// repository runs that mechanism over some range of cells:
//
//   * CellularSystem (1-D road) and HexCellularSystem (serial hex grid)
//     are the one-range case [0, n);
//   * each sim::sharded::Shard owns one range [first, end) of the torus.
//
// The core owns the range's radio cells, base stations (estimator +
// T_est controller + B_r^curr), per-cell metrics, the incremental
// reservation engine, the signalling accountant, the admission policy,
// the telemetry collector and the fault injector, and implements on them:
// Eq. (6) over reservation's Eq. (5) on the production path (normal and
// degraded mode, with the I9 post-heal check), the reference rescan, the
// fault-aware neighbour probe, the timed admission bracket, the common
// metric reset/aggregation, the I1-I3/I5/I6/I8/I9 audit sweep and the
// per-cell snapshot sections.
//
// Each engine keeps its events, mobility and engine-specific state (the
// linear road's wired backbone, soft hand-off, traces and retries; the
// shard's slot-frozen B_r, occupancy and T_soj,max) — DESIGN.md §3.1.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "admission/ns_policy.h"
#include "admission/policy.h"
#include "backhaul/network.h"
#include "backhaul/signaling.h"
#include "core/base_station.h"
#include "core/cell.h"
#include "core/metrics.h"
#include "fault/fault.h"
#include "geom/topology.h"
#include "hoef/estimator.h"
#include "reservation/engine.h"
#include "reservation/reservation.h"
#include "reservation/test_window.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace pabr::core {

struct CellCoreConfig {
  /// The owned range [first, end) of `topology`'s global cell ids.
  geom::CellId first = 0;
  geom::CellId end = 0;
  const geom::Topology* topology = nullptr;

  double capacity_bu = 100.0;
  double soft_capacity_margin = 0.0;
  hoef::EstimatorConfig hoef;
  reservation::TestWindowConfig window;

  admission::PolicyKind policy = admission::PolicyKind::kAc3;
  double static_g = 10.0;
  /// NS-DCA parameters; must outlive the core (the policy keeps the
  /// pointer).
  const admission::NsConfig* ns = nullptr;

  bool incremental_reservation = true;
  telemetry::TelemetryConfig telemetry;
  fault::FaultConfig fault;

  /// Backhaul message ledger (the linear road's); null = no message
  /// accounting, as on the hex engines.
  backhaul::InterconnectModel* interconnect = nullptr;
  /// §7 route-known next cell (null when no mobile has a known route).
  reservation::RouteNextFn route_next;
  /// Instant the time-weighted metric windows are anchored at.
  sim::Time time_origin = 0.0;
};

class CellCore {
 public:
  explicit CellCore(const CellCoreConfig& config);
  CellCore(const CellCore&) = delete;
  CellCore& operator=(const CellCore&) = delete;

  // ---- The owned range ----------------------------------------------------
  geom::CellId first() const { return first_; }
  geom::CellId end() const { return end_; }
  bool owns(geom::CellId cell) const { return cell >= first_ && cell < end_; }
  /// Dense index of an owned cell; throws InvariantError otherwise.
  std::size_t index(geom::CellId cell) const {
    PABR_CHECK(owns(cell), "cell id out of range");
    return at(cell);
  }

  Cell& cell(geom::CellId id) { return cells_[index(id)]; }
  const Cell& cell(geom::CellId id) const { return cells_[index(id)]; }
  BaseStation& station(geom::CellId id) { return stations_[index(id)]; }
  const BaseStation& station(geom::CellId id) const {
    return stations_[index(id)];
  }
  CellMetrics& metrics(geom::CellId id) { return metrics_[index(id)]; }
  const CellMetrics& metrics(geom::CellId id) const {
    return metrics_[index(id)];
  }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<CellMetrics>& all_metrics() const { return metrics_; }

  backhaul::SignalingAccountant& accountant() { return accountant_; }
  const backhaul::SignalingAccountant& accountant() const {
    return accountant_;
  }
  telemetry::Collector& telemetry() { return telemetry_; }
  const telemetry::Collector& telemetry() const { return telemetry_; }
  /// Telemetry instruments (null unless telemetry is on) and the
  /// degraded-mode ones (bound only when faults are on too).
  const telemetry::SimCounters& tel() const { return tel_; }
  const telemetry::FaultCounters& fault_tel() const { return fault_tel_; }

  /// True when the run enabled fault injection. When false every
  /// degraded-mode branch below is dead.
  bool faults_on() const { return fault_ != nullptr; }
  /// The run's injector (null without fault injection).
  fault::FaultInjector* fault_injector() { return fault_.get(); }

  // ---- Eq. (5)/(6) ----------------------------------------------------------
  /// Eq. (5) from scratch (reservation::expected_handin_bandwidth) over
  /// owned cell `source`'s connections into `target` within `t_est`,
  /// added onto `running`, with the engine's route-next map (§7).
  double contribution(geom::CellId source, geom::CellId target, sim::Time t,
                      sim::Duration t_est, double running) const;

  /// Eq. (5) on the production path: the engine's cached terms (or the
  /// scratch sum with the engine off). A pair leaving degraded mode is
  /// re-synced and checked bitwise against the scratch sum (I9).
  double accumulate(geom::CellId source, geom::CellId target, sim::Time t,
                    sim::Duration t_est, double running) {
    if (!incremental_) return contribution(source, target, t, t_est, running);
    const bool healing = faults_on() && engine_.is_stale(source, target);
    const std::size_t s = at(source);
    const double sum =
        engine_.accumulate(source, target, cells_[s].connections(),
                           stations_[s].estimator(), t, t_est, running);
    if (healing) check_resync(source, target, t, t_est, running, sum);
    return sum;
  }

  /// Pure verdict of the (cell -> neighbor) exchange at `t` through the
  /// timeout/retry ladder, without any accounting; every path (production,
  /// reference, audit, slot barrier) asks this same question. Always true
  /// without fault injection.
  bool delivered(geom::CellId cell, geom::CellId neighbor, sim::Time t) {
    return !faults_on() ||
           fault_->exchange_outcome(cell, neighbor, t).delivered;
  }
  /// Whether `cell`'s base station is up at `t` (always, without fault
  /// injection). A down station blocks new calls and drops hand-ins.
  bool station_up(geom::CellId cell, sim::Time t) {
    return !faults_on() || fault_->station_up(cell, t);
  }
  /// Degraded mode: `source` could not be consulted for `target`, so the
  /// pair's cached terms are no longer trusted.
  void distrust(geom::CellId source, geom::CellId target) {
    if (incremental_) engine_.mark_stale(source, target);
  }
  /// Degraded mode: adds the configured static floor (a per-neighbour
  /// guard-channel stand-in, Hong & Rappaport style) in place of an
  /// unreachable neighbour's Eq. (5) contribution.
  double substitute_floor(double running) const {
    telemetry::bump(fault_tel_.floor_substitutions);
    return running + degraded_floor_bu_;
  }

  /// Eq. (6) for `cell` at `t` on the production path — N_calc and
  /// message accounting, degraded-mode floors for unreachable neighbours
  /// — stored as the cell's B_r^curr and sampled into its metrics.
  double recompute(geom::CellId cell, sim::Time t);
  /// Reference Eq. (6) rescan (no caches, accounting or side effects):
  /// always equals recompute(), degraded floors included.
  double scratch_reservation(geom::CellId cell, sim::Time t);
  /// Fault-aware backhaul probe for the AC2/AC3 degraded fallback;
  /// always true without fault injection.
  bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor,
                          sim::Time t);
  /// T_soj,max of §4.2: the largest sojourn the adjacent cells' live
  /// estimation functions know at `t`.
  sim::Duration t_soj_max(geom::CellId cell, sim::Time t) const;

  /// Runs the admission policy for `bw` in `cell` inside an admission
  /// bracket, timing it when telemetry asks for it.
  bool admit(admission::AdmissionContext& context, geom::CellId cell,
             traffic::Bandwidth bw);

  // ---- New calls and hand-ins of the hex engines ---------------------------
  /// A new call `id` asking for `bw` in `cell` at `t`: blocked outright
  /// when the cell's station is down (no admission test, so no N_calc
  /// sample), else admitted when the policy's test passes AND the call
  /// fits — the probabilistic tests do not replace the hard FCA check.
  /// Samples P_CB and returns the decision.
  bool admit_call(admission::AdmissionContext& context, geom::CellId cell,
                  traffic::Bandwidth bw, traffic::ConnectionId id,
                  sim::Time t);
  /// A hand-in of connection `id` (`bw`) into `cell` at `t`: dropped when
  /// it does not fit or the cell's station is down. The cell's Fig. 6
  /// controller observes the outcome against `t_soj_max` and P_HD takes a
  /// sample. Returns whether the hand-off was dropped.
  bool hand_in(geom::CellId cell, traffic::Bandwidth bw,
               traffic::ConnectionId id, sim::Time t,
               sim::Duration t_soj_max);

  // ---- Metrics --------------------------------------------------------------
  /// Warm-up reset at `t`: restarts P_CB/P_HD and the B_r/B_u windows,
  /// the accountant, the message ledger and telemetry; learned state
  /// (estimators, T_est, occupancy) persists.
  void reset_metrics(sim::Time t);
  /// One cell's Table 2 row at `t`.
  CellStatus cell_status(geom::CellId cell, sim::Time t) const;
  /// P_CB/P_HD/N_calc and the B_r/B_u means over the range at `t`.
  SystemStatus system_status(sim::Time t) const;
  /// Registry snapshot with the polled gauges synced first.
  telemetry::MetricsSnapshot telemetry_snapshot(std::size_t active_connections);

  // ---- Audit (src/audit/system_audit.cc) -----------------------------------
  /// I1-I3 over every cell, then I6.
  void audit_cells() const;
  /// I5/I9 over every cell's adjacent pairs, then I8. Needs every
  /// neighbour of the range inside it (the serial engines).
  void audit_reservations(sim::Time t);

  // ---- Snapshot (src/snapshot/; Doc = Writer or const Reader) --------------
  /// The "cells", "stations" and "metrics" sections.
  template <class Doc>
  void io_cells(Doc& doc);
  /// The "accountant" section.
  template <class Doc>
  void io_accountant(Doc& doc);
  /// The "engine", "telemetry" and "fault" sections.
  template <class Doc>
  void io_tail(Doc& doc);
  /// One cell's radio table, base station and metrics (Ar = Encoder or
  /// Decoder).
  template <class Ar>
  void io_cell(Ar& ar, geom::CellId cell);

 private:
  std::size_t at(geom::CellId cell) const {
    return static_cast<std::size_t>(cell - first_);
  }
  void check_resync(geom::CellId source, geom::CellId target, sim::Time t,
                    sim::Duration t_est, double before, double sum) const;

  geom::CellId first_;
  geom::CellId end_;
  const geom::Topology& topology_;
  bool incremental_;
  double degraded_floor_bu_;
  backhaul::InterconnectModel* interconnect_;

  std::vector<Cell> cells_;
  std::vector<BaseStation> stations_;
  std::vector<CellMetrics> metrics_;
  reservation::IncrementalEngine engine_;
  backhaul::SignalingAccountant accountant_;
  std::unique_ptr<admission::AdmissionPolicy> policy_;
  telemetry::Collector telemetry_;
  telemetry::SimCounters tel_;
  std::unique_ptr<fault::FaultInjector> fault_;
  telemetry::FaultCounters fault_tel_;
};

}  // namespace pabr::core
