// Accounting for the paper's complexity metric N_calc — "the average
// number of B_r calculations for the admission test of a new connection
// request" (§5.2.3, Fig. 13) — plus the per-admission signalling messages
// implied by each calculation.
#pragma once

#include "backhaul/network.h"
#include "fault/fault.h"
#include "geom/topology.h"
#include "sim/stats.h"
#include "telemetry/metrics.h"

namespace pabr::backhaul {

/// Scoped per-admission accounting. Usage:
///
///   accountant.begin_admission();
///   ... policy runs, calling record_br_calculation(cell) ...
///   accountant.end_admission();
///
/// Admissions must not nest: begin while open and end while closed are
/// invariant violations (PABR_CHECK). Prefer AdmissionScope below, which
/// also closes the admission when the policy throws.
class SignalingAccountant {
 public:
  SignalingAccountant(const geom::Topology& topology,
                      InterconnectModel* interconnect)
      : topology_(topology), interconnect_(interconnect) {}

  void begin_admission();

  /// One full B_r computation performed by/for `cell`: the cell's BS asks
  /// each adjacent BS for its expected hand-in bandwidth B_{i,cell} and
  /// receives a reply (paper §4.1 last paragraph).
  void record_br_calculation(geom::CellId cell);

  /// Tallies one B_r computation toward N_calc and the telemetry counter
  /// without the all-neighbors message loop. Fault-mode callers use this
  /// and then account each per-neighbour exchange() individually, so
  /// retried or undelivered messages are billed per attempt instead of
  /// assuming the fixed announce/query/reply triple always succeeds.
  void count_br_calculation();

  /// One query/reply exchange between `from` and `to` under fault
  /// injection: asks `injector` for the outcome, records `request_type`
  /// once per attempt (plus the T_est announce on the first attempt) and
  /// the reply only on delivery, and mirrors retries/timeouts onto the
  /// bound fault telemetry counters. Returns true when the exchange
  /// eventually succeeded within the retry budget.
  bool exchange(geom::CellId from, geom::CellId to, sim::Time t,
                fault::FaultInjector& injector, MessageType request_type);

  void end_admission();

  /// True between begin_admission and end_admission. Event handlers are
  /// never inside an admission at event boundaries — the audit layer
  /// checks this.
  bool admission_open() const { return open_; }
  /// B_r calculations recorded in the currently open admission.
  int in_flight() const { return in_flight_; }

  /// Mean B_r calculations per admission test (the paper's N_calc).
  double n_calc() const { return per_admission_.mean(); }
  std::uint64_t admissions_observed() const {
    return per_admission_.samples();
  }
  /// Sum of per-admission B_r calculation counts (snapshot payload; the
  /// pair (sum, samples) reconstructs the accumulator exactly).
  double per_admission_sum() const { return per_admission_.sum(); }
  std::uint64_t total_br_calculations() const { return total_.count(); }

  void reset();

  /// Snapshot restore. Only legal between admissions (open_ == false at
  /// every event boundary, which is where snapshots are taken).
  void restore(double per_admission_sum, std::uint64_t admissions,
               std::uint64_t total) {
    per_admission_.restore(per_admission_sum, admissions);
    total_.restore(total);
    in_flight_ = 0;
    open_ = false;
  }

  /// Mirrors every recorded B_r calculation onto a telemetry counter
  /// (telemetry/metrics.h). No-op until bound.
  void bind_telemetry(telemetry::Counter* br_calculations) {
    tel_br_calculations_ = br_calculations;
  }

  /// Fault-path telemetry: retransmissions and exhausted retry budgets
  /// observed by exchange(). No-ops until bound.
  void bind_fault_telemetry(telemetry::Counter* retries,
                            telemetry::Counter* timeouts) {
    tel_retries_ = retries;
    tel_timeouts_ = timeouts;
  }

 private:
  const geom::Topology& topology_;
  InterconnectModel* interconnect_;  // may be null (no message accounting)
  sim::MeanAccumulator per_admission_;
  sim::Counter total_;
  int in_flight_ = 0;
  bool open_ = false;
  telemetry::Counter* tel_br_calculations_ = nullptr;
  telemetry::Counter* tel_retries_ = nullptr;
  telemetry::Counter* tel_timeouts_ = nullptr;
};

/// RAII admission bracket: begin on construction, end on destruction —
/// so the accountant is balanced even when the admission policy throws
/// (a leaked open admission would silently swallow every later
/// record_br_calculation into one giant N_calc sample).
class AdmissionScope {
 public:
  explicit AdmissionScope(SignalingAccountant& accountant)
      : accountant_(accountant) {
    accountant_.begin_admission();
  }
  ~AdmissionScope() { accountant_.end_admission(); }

  AdmissionScope(const AdmissionScope&) = delete;
  AdmissionScope& operator=(const AdmissionScope&) = delete;

 private:
  SignalingAccountant& accountant_;
};

}  // namespace pabr::backhaul
