// Direct hammer of the IncrementalEngine's open-addressed pair table
// (reservation/engine.h, DESIGN.md §11): enough (source, target) pairs to
// force table growth, interleaved insert / mark_stale (backward-shift
// erase) / reinsert cycles, connection-table churn and estimator updates
// — with EVERY accumulate() checked for bitwise equality (==, not NEAR)
// against the from-scratch Eq. (5) rescan. The system-level equivalence
// suite (reservation_incremental_test.cc) covers the same engine through
// the simulator; this one aims the churn directly at the hash table's
// probe runs and deletion paths.
#include "reservation/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hoef/estimator.h"
#include "reservation/reservation.h"
#include "sim/random.h"
#include "sim/time.h"
#include "traffic/connection.h"

namespace pabr {
namespace {

constexpr int kSources = 12;
constexpr int kTargets = 6;  // 72 live pairs > 64-slot initial table

struct SourceState {
  hoef::HandoffEstimator estimator;
  std::vector<traffic::ConnectionEntry> table;  // id-sorted
  traffic::ConnectionId next_id = 1;

  explicit SourceState(geom::CellId self)
      : estimator(self, [] {
          hoef::EstimatorConfig cfg;
          cfg.t_int = sim::kInfiniteDuration;  // cacheable terms
          cfg.n_quad = 30;
          return cfg;
        }()) {}

  void insert(sim::Rng& rng, sim::Time now) {
    traffic::ReservationView view;
    view.reserve_bandwidth = rng.uniform_int(1, 6);
    view.prev_cell = static_cast<geom::CellId>(rng.uniform_int(0, kSources));
    view.entered_cell_at = now - rng.uniform(0.0, 40.0);
    traffic::ConnectionEntry e{next_id++, view.reserve_bandwidth, view};
    table.insert(std::lower_bound(table.begin(), table.end(), e.id,
                                  [](const traffic::ConnectionEntry& a,
                                     traffic::ConnectionId id) {
                                    return a.id < id;
                                  }),
                 e);
  }

  void remove(sim::Rng& rng) {
    if (table.empty()) return;
    table.erase(table.begin() +
                rng.uniform_int(0, static_cast<int>(table.size()) - 1));
  }

  void reprice(sim::Rng& rng) {
    if (table.empty()) return;
    auto& e = table[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(table.size()) - 1))];
    e.view.reserve_bandwidth = rng.uniform_int(1, 6);
    e.bandwidth = e.view.reserve_bandwidth;
  }
};

TEST(EnginePairCacheTest, HammeredPairsStayBitwiseExact) {
  std::vector<SourceState> sources;
  sources.reserve(kSources);
  for (int s = 0; s < kSources; ++s) {
    sources.emplace_back(static_cast<geom::CellId>(s));
  }
  sim::Rng rng(42);
  sim::Time now = 100.0;
  // Seed every estimator with histories toward each hammer target.
  for (auto& src : sources) {
    for (int i = 0; i < 120; ++i) {
      src.estimator.record(
          {now + 0.1 * i, static_cast<geom::CellId>(rng.uniform_int(0, kSources)),
           static_cast<geom::CellId>(kSources + rng.uniform_int(0, kTargets - 1)),
           rng.uniform(0.5, 60.0)});
    }
    for (int i = 0; i < 8; ++i) src.insert(rng, now);
  }
  now += 20.0;

  reservation::IncrementalEngine engine;
  std::uint64_t last_invalidated = 0;
  for (int round = 0; round < 40; ++round) {
    now += 1.5;
    // Churn: connection arrivals/departures/QoS changes on some sources,
    // fresh hand-off observations (state_version bumps) on others.
    for (auto& src : sources) {
      switch (rng.uniform_int(0, 4)) {
        case 0: src.insert(rng, now); break;
        case 1: src.remove(rng); break;
        case 2: src.reprice(rng); break;
        case 3:
          src.estimator.record(
              {now, static_cast<geom::CellId>(rng.uniform_int(0, kSources)),
               static_cast<geom::CellId>(
                   kSources + rng.uniform_int(0, kTargets - 1)),
               rng.uniform(0.5, 60.0)});
          break;
        default: break;  // leave this source untouched: fast-path round
      }
    }
    // Degrade a few random pairs: slot erased (backward-shift), stale
    // mark up until the next completed accumulate.
    for (int k = 0; k < 3; ++k) {
      const auto s = static_cast<geom::CellId>(rng.uniform_int(0, kSources - 1));
      const auto tgt = static_cast<geom::CellId>(
          kSources + rng.uniform_int(0, kTargets - 1));
      engine.mark_stale(s, tgt);
      EXPECT_TRUE(engine.is_stale(s, tgt));
    }
    EXPECT_GE(engine.pairs_invalidated(), last_invalidated);
    last_invalidated = engine.pairs_invalidated();

    // Vary t_est occasionally: a pair whose t_est stepped must recompute.
    const sim::Duration t_est = (round % 7 == 0) ? 25.0 : 30.0;
    for (int s = 0; s < kSources; ++s) {
      const auto& src = sources[static_cast<std::size_t>(s)];
      for (int tg = 0; tg < kTargets; ++tg) {
        const auto target = static_cast<geom::CellId>(kSources + tg);
        const double running = 0.125 * round;  // exact in binary
        const double fast =
            engine.accumulate(static_cast<geom::CellId>(s), target, src.table,
                              src.estimator, now, t_est, running);
        const double reference = reservation::expected_handin_bandwidth(
            src.estimator, src.table, nullptr, static_cast<geom::CellId>(s),
            target, now, t_est, running);
        EXPECT_EQ(fast, reference)
            << "source " << s << " target " << target << " round " << round;
        // A completed accumulate discharges the pair's stale mark.
        EXPECT_FALSE(
            engine.is_stale(static_cast<geom::CellId>(s), target));
      }
    }
  }
  // The steady rounds must actually exercise the cache, not bypass it.
  EXPECT_GT(engine.terms_reused(), 0u);
  EXPECT_GT(engine.terms_recomputed(), 0u);
}

TEST(EnginePairCacheTest, InsertInvalidateReinsertCycle) {
  // One pair, cycled hard: warm the cache, invalidate (slot deleted),
  // re-accumulate (slot reinserted), repeat. Every answer bitwise equal
  // to scratch; staleness drops exactly at the re-sync.
  SourceState src(0);
  sim::Rng rng(7);
  sim::Time now = 50.0;
  for (int i = 0; i < 60; ++i) {
    src.estimator.record({now + 0.2 * i, 0, 1, rng.uniform(1.0, 30.0)});
  }
  for (int i = 0; i < 6; ++i) src.insert(rng, now);
  now += 15.0;

  reservation::IncrementalEngine engine;
  const geom::CellId target = 1;
  for (int cycle = 0; cycle < 100; ++cycle) {
    now += 0.5;
    const double a = engine.accumulate(0, target, src.table, src.estimator,
                                       now, 30.0, 0.0);
    EXPECT_EQ(a, reservation::expected_handin_bandwidth(
                     src.estimator, src.table, nullptr, 0, target, now, 30.0))
        << "warm cycle " << cycle;
    engine.mark_stale(0, target);
    ASSERT_TRUE(engine.is_stale(0, target));
    const double b = engine.accumulate(0, target, src.table, src.estimator,
                                       now, 30.0, 0.0);
    EXPECT_EQ(b, a) << "post-heal cycle " << cycle;
    EXPECT_FALSE(engine.is_stale(0, target));
  }
  // Re-marking an already-stale pair must not double-count.
  engine.mark_stale(0, target);
  const std::uint64_t once = engine.pairs_invalidated();
  engine.mark_stale(0, target);
  EXPECT_EQ(engine.pairs_invalidated(), once);
}

}  // namespace
}  // namespace pabr
