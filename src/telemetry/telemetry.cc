#include "telemetry/telemetry.h"

namespace pabr::telemetry {

void Collector::configure(const TelemetryConfig& cfg) {
  enabled_ = cfg.enabled;
  tracing_ = cfg.enabled && cfg.trace && cfg.trace_capacity > 0;
  time_admissions_ = cfg.enabled && cfg.time_admissions;
  if (tracing_) {
    buffer_ = TraceBuffer(cfg.trace_capacity, cfg.trace_sample_every);
  }
}

SimCounters make_sim_counters(Registry& r, double capacity_bu) {
  SimCounters c;
  c.admitted = r.counter("admission.admitted");
  c.blocked = r.counter("admission.blocked");
  c.blocked_wired = r.counter("admission.blocked_wired");
  c.retries = r.counter("admission.retries");
  c.handoff_completed = r.counter("handoff.completed");
  c.handoff_dropped = r.counter("handoff.dropped");
  c.handoff_dropped_wired = r.counter("handoff.dropped_wired");
  c.handoff_degraded = r.counter("handoff.degraded");
  c.handoff_upgraded = r.counter("handoff.upgraded");
  c.off_road = r.counter("handoff.off_road");
  c.expiries = r.counter("connection.expired");
  c.soft_allocs = r.counter("softho.alloc");
  c.soft_fallbacks = r.counter("softho.fallback");
  c.br_recomputes = r.counter("reservation.recomputes");
  c.terms_recomputed = r.counter("reservation.terms_recomputed");
  c.terms_reused = r.counter("reservation.terms_reused");
  c.quads_recorded = r.counter("hoef.quads_recorded");
  c.quads_evicted = r.counter("hoef.quads_evicted");
  c.br_calculations = r.counter("signaling.br_calculations");
  // ns/admission: sub-100ns to 1ms in 50 buckets covers the engine-on and
  // scratch paths alike; out-of-range samples clamp to the edge buckets.
  c.admission_ns = r.histogram("admission.ns", 0.0, 1.0e6, 50);
  const double hi = capacity_bu > 0.0 ? capacity_bu : 100.0;
  c.br_value = r.histogram("reservation.br", 0.0, hi, 32);
  c.handoff_sojourn = r.histogram("handoff.sojourn_s", 0.0, 300.0, 30);
  return c;
}

FaultCounters make_fault_counters(Registry& r) {
  FaultCounters c;
  c.retries = r.counter("fault.retries");
  c.timeouts = r.counter("fault.timeouts");
  c.ac_local_fallbacks = r.counter("fault.ac_local_fallbacks");
  c.floor_substitutions = r.counter("fault.floor_substitutions");
  c.station_blocks = r.counter("fault.station_blocks");
  c.station_drops = r.counter("fault.station_drops");
  c.pair_resyncs = r.counter("fault.pair_resyncs");
  return c;
}

}  // namespace pabr::telemetry
