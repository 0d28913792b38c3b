// Incremental target-reservation engine — the fast path behind
// AdmissionContext::recompute_reservation.
//
// Every AC1/AC2/AC3 admission test evaluates Eq. (6): for the target cell,
// each adjacent cell contributes Eq. (5), a sum of b * p_h over ALL of its
// active connections. Done from scratch (the paper's §6.2 complexity
// concern, bench/fig13_ncalc_complexity), each term costs a per-connection
// record fetch plus two or three binary searches into the estimation
// function — O(adjacent x connections x log N_quad) per admission test.
//
// The engine exploits two facts:
//
//   1. p_h is a ratio of step-function lookups, so each term b * p_h is
//      piecewise CONSTANT in simulation time: it can only change when the
//      connection's extant sojourn (or sojourn + T_est) crosses the next
//      sample point of the estimation function
//      (hoef::ProbeResult::valid_until), when the estimation function
//      itself changes (hoef::HandoffEstimator::state_version), when the
//      target's T_est steps, or when the connection moves or changes QoS.
//
//   2. Between admissions only a handful of connections change state, so
//      almost every cached term is still bitwise-exact.
//
// Each (source cell -> target cell) pair keeps a term cache mirroring the
// source cell's id-sorted connection table. A recomputation first tries
// the all-hit fast path: when the cached terms mirror the live table
// one-to-one and none has expired, it sums the cached values in table
// order with no copying at all — the steady-state case. On the first
// divergence it falls back to the merge walk: unchanged, unexpired terms
// are reused verbatim; new/expired/changed ones are recomputed via the
// estimator probes. Either way the returned B_r accumulates term-by-term
// in table order into the caller's running sum — the exact association
// order of the scratch rescan — so the fast path is bit-identical to
// recomputing from scratch, not merely close
// (tests/reservation_incremental_test.cc asserts this).
//
// Estimators with a finite T_int drift with wall-clock time (their
// snapshots are rebuilt as t0 advances), so their terms are never cached
// (supports_caching() == false) — the walk then degrades gracefully to a
// dense-table rescan, still avoiding the per-connection hash lookups the
// scratch path of old performed.
//
// Pair caches live in an open-addressed, linearly probed hash table
// (power-of-two capacity, key = packed source<<32|target mixed through a
// splitmix64 finalizer) instead of a std::unordered_map: one predictable
// probe sequence over a dense slot array per accumulate() call, no
// per-node allocation. Degraded-mode invalidation (mark_stale) DELETES
// the pair's slot via backward-shift, so the table never accumulates
// tombstones; staleness itself is tracked in a small sorted key set that
// the next completed accumulate() discharges (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/topology.h"
#include "hoef/estimator.h"
#include "sim/time.h"
#include "telemetry/metrics.h"
#include "traffic/connection.h"

namespace pabr::reservation {

class IncrementalEngine {
 public:
  /// Next cell a route-known mobile camped in `cell` and moving in
  /// `direction` will enter (the §7 ITS/GPS extension); may be null when
  /// the deployment has no route-known mobiles (e.g. the hex grid).
  using RouteNextFn = std::function<geom::CellId(geom::CellId cell,
                                                 int direction)>;

  explicit IncrementalEngine(RouteNextFn route_next = nullptr)
      : route_next_(std::move(route_next)) {}

  /// The route-known next-cell map the terms are evaluated with (null
  /// when the deployment has none); the scratch Eq. (5) uses the same.
  const RouteNextFn& route_next() const { return route_next_; }

  /// Adds Eq. (5) — the expected hand-in bandwidth from `source` into
  /// `target` within the target's `t_est` — onto `running`, term by term
  /// in connection-id order, and returns the new running sum. `table` and
  /// `estimator` belong to the source cell. Served from the pair's term
  /// cache; bitwise-identical to a from-scratch rescan.
  double accumulate(geom::CellId source, geom::CellId target,
                    const std::vector<traffic::ConnectionEntry>& table,
                    const hoef::HandoffEstimator& estimator, sim::Time now,
                    sim::Duration t_est, double running);

  /// Degraded mode (fault injection): declares the (source -> target)
  /// pair's cached terms untrusted — the source cell could not be
  /// consulted, so the terms no longer track its table. Deletes the
  /// pair's table slot (backward-shift, no tombstone); the stale mark
  /// stays up until the next successful accumulate() over the pair (the
  /// post-heal re-sync), which the core system audits bitwise against a
  /// from-scratch rescan.
  void mark_stale(geom::CellId source, geom::CellId target);
  bool is_stale(geom::CellId source, geom::CellId target) const;
  /// Pairs ever marked stale (monotone; telemetry/diagnostics).
  std::uint64_t pairs_invalidated() const { return pairs_invalidated_; }

  // Diagnostics: how many per-connection terms were recomputed vs served
  // from cache since construction.
  std::uint64_t terms_recomputed() const { return terms_recomputed_; }
  std::uint64_t terms_reused() const { return terms_reused_; }

  /// Sorted keys of pairs currently marked stale (snapshot payload).
  const std::vector<std::uint64_t>& stale_keys() const { return stale_keys_; }

  /// Snapshot restore onto a freshly constructed engine: reinstates the
  /// degraded-mode marks and the monotone tallies but NOT the pair term
  /// caches — accumulate() is bitwise-identical to a from-scratch rescan,
  /// so a resumed run repopulates the caches on first use and every
  /// post-heal audit still passes. Only terms_reused/terms_recomputed
  /// diverge from the uninterrupted run (documented in DESIGN.md §13).
  void restore(std::vector<std::uint64_t> stale_keys,
               std::uint64_t pairs_invalidated, std::uint64_t terms_recomputed,
               std::uint64_t terms_reused) {
    stale_keys_ = std::move(stale_keys);
    pairs_invalidated_ = pairs_invalidated;
    terms_recomputed_ = terms_recomputed;
    terms_reused_ = terms_reused;
  }

  /// Mirrors the per-term recompute/reuse tallies onto telemetry counters
  /// (telemetry/metrics.h). Null pointers detach; bumps are no-ops until
  /// bound.
  void bind_telemetry(telemetry::Counter* recomputed,
                      telemetry::Counter* reused) {
    tel_recomputed_ = recomputed;
    tel_reused_ = reused;
  }

 private:
  struct TermEntry {
    traffic::ConnectionId id = 0;
    double value = 0.0;  ///< b * p_h, bitwise what the scratch path yields
    sim::Time valid_until = 0.0;  ///< first time the value may change
    // Change fingerprint: any difference means the connection moved,
    // re-entered, or changed its reservation bandwidth since caching.
    traffic::Bandwidth reserve_bw = 0;
    geom::CellId prev = geom::kNoCell;
    sim::Time entered_at = 0.0;
  };

  struct PairCache {
    std::uint64_t estimator_version = ~std::uint64_t{0};
    sim::Duration t_est = -1.0;
    std::vector<TermEntry> terms;  // id-sorted, mirrors the source table
  };

  /// Open-addressed (source -> target) pair table: linear probing over a
  /// power-of-two slot array, no tombstones (erase backward-shifts the
  /// probe run). The packed pair key reserves ~0 (kNoCell twice) as the
  /// empty-slot marker; valid cell ids never produce it.
  class PairTable {
   public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    PairCache& find_or_insert(std::uint64_t key);
    PairCache* find(std::uint64_t key);
    const PairCache* find(std::uint64_t key) const;
    void erase(std::uint64_t key);
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      std::uint64_t key = kEmptyKey;
      PairCache cache;
    };

    std::size_t probe_start(std::uint64_t key) const;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;  // slots_.size() - 1 (power of two)
  };

  TermEntry make_term(geom::CellId source, geom::CellId target,
                      const traffic::ConnectionEntry& entry,
                      const hoef::HandoffEstimator& estimator, sim::Time now,
                      sim::Duration t_est) const;

  PairTable pairs_;
  /// Sorted keys of pairs in degraded mode (mark_stale .. next completed
  /// accumulate). Tiny: only faulted pairs ever enter.
  std::vector<std::uint64_t> stale_keys_;
  std::vector<TermEntry> scratch_;  // reused merge buffer
  std::size_t max_table_seen_ = 0;  // pre-sizes scratch_ across pairs
  RouteNextFn route_next_;
  std::uint64_t terms_recomputed_ = 0;
  std::uint64_t terms_reused_ = 0;
  std::uint64_t pairs_invalidated_ = 0;
  telemetry::Counter* tel_recomputed_ = nullptr;
  telemetry::Counter* tel_reused_ = nullptr;
};

}  // namespace pabr::reservation
