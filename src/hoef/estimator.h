// The hand-off estimation function F_HOE of §3.1 and the Bayes hand-off
// probability of §4.1 (paper Eq. 4).
//
// One HandoffEstimator lives in each cell's BS. It ingests hand-off event
// quadruplets and answers:
//
//   p_h(C -> next) = P[ mobile hands off to `next` within T_est
//                       | it has already stayed T_ext-soj ]
//
// computed over the quadruplets that fall into the periodic estimation
// windows  t0 - T_int - n*P <= T_event < t0 + T_int - n*P  (paper Eq. 2,
// P = T_day by default) with weight w_n per window, w_n non-increasing and
// 0 beyond N_win periods (Eq. 3). At most N_quad quadruplets are used per
// (prev, next) pair, picked by the §3.1 priority rule: smaller n first,
// then smallest distance |T_event - (t0 - n*P)| from the window centre.
//
// Lookups run on lazily built per-(prev) snapshots: sojourn-sorted arrays
// with prefix-summed weights, so p_h costs O(log N_quad). Snapshots are
// rebuilt when new events arrive or (for finite T_int) when t0 drifts past
// `snapshot_tolerance`.
//
// Data layout (DESIGN.md §11): this estimator sits on the reservation
// hot path — every B_r recomputation probes it per connection — so the
// event store and the snapshots are flat, cache-friendly structures
// rather than node-based containers. Histories live in a small sorted
// flat-map (util/flat_map.h) of fixed-retention ring buffers
// (util/ring.h); snapshots keep their per-next arrays as index spans
// into reusable arenas (util/arena.h), so a rebuild allocates nothing
// once warm. Iteration orders match the std::map/std::deque layout they
// replaced key-for-key, which keeps every float-accumulation order — and
// therefore every output bit — identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/topology.h"
#include "hoef/quadruplet.h"
#include "sim/time.h"
#include "telemetry/metrics.h"
#include "util/arena.h"
#include "util/flat_map.h"
#include "util/ring.h"

namespace pabr::snapshot {
class Encoder;
class Decoder;
}  // namespace pabr::snapshot

namespace pabr::hoef {

struct EstimatorConfig {
  /// T_int: half-width of each periodic estimation window. Stationary
  /// experiments use infinity ("T_int = inf is used since the speed range
  /// and the offered load do not vary", §5.2); the time-varying ones use
  /// 1 hour.
  sim::Duration t_int = sim::kInfiniteDuration;
  /// Window period P (T_day for weekday patterns, T_week for weekend
  /// sets, §3.1).
  sim::Duration period = sim::kDay;
  /// N_win-days: windows older than this many periods are out-of-date.
  int n_win_periods = 1;
  /// w_0..w_{N_win}: non-increasing window weights (paper uses w0=w1=1).
  std::vector<double> weights = {1.0, 1.0};
  /// N_quad: max quadruplets used per (prev, next) pair.
  int n_quad = 100;
  /// Rebuild horizon for snapshots under a finite T_int.
  sim::Duration snapshot_tolerance = 30.0;
};

/// One point of the estimation function's footprint (paper Fig. 4).
struct FootprintPoint {
  geom::CellId next = geom::kNoCell;
  sim::Duration sojourn = 0.0;
  double weight = 0.0;
  int window = 0;  ///< the n of the periodic window the event fell into
};

/// A probability sample bundled with its validity horizon: because the
/// estimation function is a step function of the extant sojourn, p_h as a
/// function of wall-clock time is piecewise constant. `valid_until` is the
/// earliest simulation time at which the value may change (the next step
/// breakpoint); until then — and as long as the estimator's state_version
/// is unchanged — the exact same double would be recomputed. This is what
/// makes the incremental reservation engine exact, not approximate.
struct ProbeResult {
  double probability = 0.0;
  sim::Time valid_until = sim::kInfiniteDuration;
};

class HandoffEstimator {
 public:
  /// `self` is the id of the owning cell (the paper's cell "0"-centric
  /// view); quadruplets with prev == self are starts-in-cell events.
  HandoffEstimator(geom::CellId self, EstimatorConfig config);

  /// Ingests one departure observation. Event times must be
  /// non-decreasing (simulation order).
  void record(const Quadruplet& q);

  /// Paper Eq. (4): probability that a mobile which entered from `prev`
  /// and has stayed `extant_sojourn` hands off into `next` within `t_est`.
  /// Returns 0 when the mobile is estimated stationary (no cached event
  /// outlasts its extant sojourn).
  double handoff_probability(sim::Time t0, geom::CellId prev,
                             geom::CellId next, sim::Duration extant_sojourn,
                             sim::Duration t_est) const;

  /// Probability that the mobile hands off *anywhere* within t_est — the
  /// same conditional with the numerator summed over all next cells.
  double any_handoff_probability(sim::Time t0, geom::CellId prev,
                                 sim::Duration extant_sojourn,
                                 sim::Duration t_est) const;

  /// handoff_probability plus the time horizon the returned value stays
  /// bitwise valid for (see ProbeResult). Only meaningful while
  /// state_version() is unchanged and supports_caching() holds.
  ProbeResult handoff_probability_probe(sim::Time t0, geom::CellId prev,
                                        geom::CellId next,
                                        sim::Duration extant_sojourn,
                                        sim::Duration t_est) const;

  /// any_handoff_probability with a validity horizon.
  ProbeResult any_handoff_probability_probe(sim::Time t0, geom::CellId prev,
                                            sim::Duration extant_sojourn,
                                            sim::Duration t_est) const;

  /// Monotonic counter bumped whenever a lookup after this moment could
  /// return a different value than before at the same (t0, sojourn)
  /// arguments: new quadruplets recorded and prunes that dropped events.
  std::uint64_t state_version() const { return state_version_; }

  /// True when probe results can be cached across time: with an infinite
  /// T_int, snapshots depend only on the recorded events (covered by
  /// state_version); with a finite T_int they also drift with t0, so
  /// callers must fall back to recomputation.
  bool supports_caching() const;

  /// Largest sojourn among currently-usable quadruplets, across all prev
  /// (feeds T_soj,max of the Fig. 6 controller). 0 when empty.
  sim::Duration max_sojourn(sim::Time t0) const;

  /// Footprint of the estimation function for one prev (paper Fig. 4).
  std::vector<FootprintPoint> footprint(sim::Time t0, geom::CellId prev) const;

  /// Drops quadruplets that can no longer enter any window at or after t0
  /// (T_event < t0 - T_int - N_win * P).
  void prune(sim::Time t0);

  /// Structural self-check of the event store (audit layer): every cached
  /// quadruplet lives in the ring matching its (prev, next), rings are
  /// event-time-sorted with nothing newer than the last recorded event,
  /// sojourns are non-negative, and with an infinite T_int no ring holds
  /// more than N_quad events. Throws InvariantError on violation.
  void audit() const;

  /// Total quadruplets currently cached (diagnostics).
  std::size_t cached_events() const;

  /// Mirrors quadruplet ingestion/eviction onto telemetry counters
  /// (telemetry/metrics.h). The owning system binds every station's
  /// estimator to the same pair; bumps are no-ops until bound.
  void bind_telemetry(telemetry::Counter* recorded,
                      telemetry::Counter* evicted) {
    tel_recorded_ = recorded;
    tel_evicted_ = evicted;
  }

  geom::CellId self() const { return self_; }
  const EstimatorConfig& config() const { return config_; }

  /// Snapshot save/load (src/snapshot/): serializes the quadruplet store
  /// and revision counters, plus — for each per-prev snapshot that was
  /// fresh by revision at save time — its build timestamp, so load()
  /// rebuilds the exact snapshot the uninterrupted run was consulting
  /// (build_snapshot is a pure function of the rings, the config and the
  /// build time). A stale saved snapshot stays invalid after load, so a
  /// finite-T_int freshness test cannot wrongly pass. load() expects a
  /// freshly constructed estimator with the same self/config.
  void save(snapshot::Encoder& enc) const;
  void load(snapshot::Decoder& dec);

 private:
  struct Selected {
    sim::Duration sojourn;
    double weight;
    int window;
    double center_distance;
  };
  /// One prev's estimation function, flattened: the per-next
  /// sojourn-sorted sample arrays and the raw selections live as index
  /// spans into the snapshot's arenas; the whole-prev arrays keep their
  /// own vectors (clear() retains capacity, so they churn nothing
  /// either). Rebuilds reset the arenas and refill — zero allocations
  /// once the arenas are warm.
  struct NextSpan {
    geom::CellId next = geom::kNoCell;
    util::ArenaSpan sojourns;  ///< into `values`, sorted ascending
    util::ArenaSpan prefix;    ///< into `values`, same length
    util::ArenaSpan raw;       ///< into `raw`, sojourn-sorted Selected
  };
  struct Snapshot {
    sim::Time built_at = -1.0;
    std::uint64_t revision = 0;
    bool valid = false;
    // All selected quadruplets of this prev, sorted by sojourn.
    std::vector<double> all_sojourn;
    std::vector<double> all_prefix;  // prefix-summed weights (same length)
    double all_total = 0.0;
    double max_sojourn = 0.0;
    // Per-next spans, sorted by next id (the iteration order of the
    // std::map this replaces).
    std::vector<NextSpan> by_next;
    util::Arena<double> values;  ///< per-next sojourn + prefix runs
    util::Arena<Selected> raw;   ///< per-next raw selections (footprint)

    const NextSpan* find_next(geom::CellId next) const;
  };
  struct PrevHistory {
    // Per-next event-time-ordered rings (append order == time order).
    util::FlatMap<geom::CellId, util::Ring<Quadruplet>> by_next;
    std::uint64_t revision = 0;
    mutable Snapshot snapshot;
  };

  double window_weight(int n) const;
  bool snapshot_fresh(const PrevHistory& h, sim::Time t0) const;
  void build_snapshot(const PrevHistory& h, sim::Time t0) const;
  /// Usable quadruplets of one ring at t0, with window index/weight,
  /// written into `select_scratch_`.
  void select(const util::Ring<Quadruplet>& events, sim::Time t0) const;
  const Snapshot* snapshot_for(geom::CellId prev, sim::Time t0) const;

  geom::CellId self_;
  EstimatorConfig config_;
  util::FlatMap<geom::CellId, PrevHistory> by_prev_;
  sim::Time last_event_time_ = 0.0;
  std::uint64_t state_version_ = 0;
  // Build-time scratch, reused across every snapshot rebuild of this
  // estimator (per-estimator arena of the hot path's temporaries).
  mutable std::vector<Selected> select_scratch_;
  mutable std::vector<std::pair<double, double>> all_scratch_;
  telemetry::Counter* tel_recorded_ = nullptr;
  telemetry::Counter* tel_evicted_ = nullptr;
};

}  // namespace pabr::hoef
