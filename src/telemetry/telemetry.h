// The per-system telemetry collector: one metrics Registry plus one
// TraceBuffer behind a single runtime switch, and the canonical
// instrument set the two simulators (core/system, core/hex_system) wire
// into their event handlers and subcomponents.
//
// Cost model:
//   * disabled (the default TelemetryConfig): one predictable branch per
//     hook site; no instrument is ever registered and no record
//     allocated — bench numbers are unchanged;
//   * enabled: counter bumps are single u64 increments, trace emits are
//     one 32-byte store into a preallocated ring. The acceptance budget
//     is < 5% on bench/micro_admission's ns/admission.
//
// Determinism: the collector is write-only from the simulation's point of
// view — nothing it records feeds back into admission decisions, RNG
// draws, or event ordering, so trajectories are byte-identical with
// telemetry on or off.
#pragma once

#include <cstdint>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace pabr::telemetry {

struct TelemetryConfig {
  /// Master runtime switch; everything below is ignored when false.
  bool enabled = false;
  /// Collect trace records (counters/histograms are always collected when
  /// enabled).
  bool trace = true;
  /// Ring slots per run (32 bytes each; 2^20 = 32 MiB). 0 disables the
  /// trace while keeping the metrics.
  std::size_t trace_capacity = std::size_t{1} << 20;
  /// Keep every Nth eligible trace record (deterministic sampler, 1 = all).
  std::uint32_t trace_sample_every = 1;
  /// Wrap each admission test in a steady_clock pair feeding the
  /// "admission.ns" histogram. Wall-clock readings never touch simulation
  /// state, so this does not perturb determinism — only the trace/metrics
  /// content varies across hosts.
  bool time_admissions = true;
};

class Collector {
 public:
  Collector() = default;

  /// Applies `cfg`; called once from the owning system's constructor.
  void configure(const TelemetryConfig& cfg);

  bool enabled() const { return enabled_; }
  bool tracing() const { return enabled() && tracing_; }
  bool time_admissions() const { return enabled() && time_admissions_; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TraceBuffer& buffer() { return buffer_; }
  const TraceBuffer& buffer() const { return buffer_; }

  void emit(double t, EventKind kind, std::int32_t cell, std::uint64_t mobile,
            double payload) {
    if (tracing()) buffer_.emit(t, kind, cell, mobile, payload);
  }

  MetricsSnapshot snapshot() const { return registry_.snapshot(); }
  std::vector<TraceRecord> drain_trace() { return buffer_.drain(); }

 private:
  bool enabled_ = false;
  bool tracing_ = false;
  bool time_admissions_ = false;
  Registry registry_;
  TraceBuffer buffer_;
};

/// The canonical simulator instrument set, registered in one fixed order
/// so snapshots from different runs line up. Null pointers (when
/// telemetry is disabled) are tolerated everywhere via telemetry::bump.
struct SimCounters {
  // Admission outcomes (new connections).
  Counter* admitted = nullptr;
  Counter* blocked = nullptr;
  Counter* blocked_wired = nullptr;
  Counter* retries = nullptr;
  // Hand-off outcomes.
  Counter* handoff_completed = nullptr;
  Counter* handoff_dropped = nullptr;
  Counter* handoff_dropped_wired = nullptr;
  Counter* handoff_degraded = nullptr;
  Counter* handoff_upgraded = nullptr;
  Counter* off_road = nullptr;
  Counter* expiries = nullptr;
  Counter* soft_allocs = nullptr;
  Counter* soft_fallbacks = nullptr;
  // Reservation engine.
  Counter* br_recomputes = nullptr;
  Counter* terms_recomputed = nullptr;
  Counter* terms_reused = nullptr;
  // Hand-off estimation functions.
  Counter* quads_recorded = nullptr;
  Counter* quads_evicted = nullptr;
  // Signaling.
  Counter* br_calculations = nullptr;
  // Distributions.
  Histogram* admission_ns = nullptr;   ///< wall ns per admission test
  Histogram* br_value = nullptr;       ///< computed B_r values (BU)
  Histogram* handoff_sojourn = nullptr;///< sojourn at crossing (s)
};

/// Registers (or re-fetches) the canonical instruments on `registry`.
/// `capacity_bu` sizes the B_r histogram's range.
SimCounters make_sim_counters(Registry& registry, double capacity_bu);

/// Degraded-mode instruments, registered only when fault injection is
/// active (so fault-free snapshots keep their exact historical key set).
struct FaultCounters {
  Counter* retries = nullptr;             ///< signalling retransmissions
  Counter* timeouts = nullptr;            ///< retry budget exhausted
  Counter* ac_local_fallbacks = nullptr;  ///< AC2/AC3 -> AC1-local decisions
  Counter* floor_substitutions = nullptr; ///< static floor used for a p_h term
  Counter* station_blocks = nullptr;      ///< new calls refused, BS down
  Counter* station_drops = nullptr;       ///< hand-ins dropped, BS down
  Counter* pair_resyncs = nullptr;        ///< post-heal audited cache re-syncs
};

/// Registers (or re-fetches) the fault instruments on `registry`.
FaultCounters make_fault_counters(Registry& registry);

}  // namespace pabr::telemetry
