// Deterministic, seed-driven infrastructure fault injection (DESIGN.md
// §10): backhaul links fail and heal, individual signaling messages are
// dropped or delayed past their timeout, and base stations go down and
// come back mid-run.
//
// The injector is PASSIVE: it schedules no simulator events and owns no
// mutable simulation state the trajectory can observe. Every decision is
// a pure function of the fault seed and the query arguments:
//
//   * Link and station up/down states come from lazily extended,
//     memoized alternating up/down interval timelines, one per entity,
//     each generated from its own derived RNG stream
//     (derive_seed(fault_seed, "fault-link-a-b") etc). Extending a
//     timeline never changes the intervals already generated, so the
//     answer to up(t) is independent of the order (or number) of
//     queries — incremental and from-scratch reservation modes, and
//     1-vs-N-thread batches, see identical fault schedules.
//   * Per-message drop/delay decisions are stateless hashes of
//     (seed, from, to, time bit-pattern, attempt, salt): the same
//     exchange attempted at the same simulation time always meets the
//     same fate, no matter which code path asks.
//
// The exchange timeout + bounded-exponential-backoff retry ladder is
// *virtual*: signaling in this simulator is instantaneous in simulation
// time, so the ladder is the deterministic decision procedure for "did
// this request/reply survive, and after how many re-sends", not a source
// of simulated latency.
//
// Gating mirrors telemetry: the simulators only construct an injector
// when FaultConfig::enabled is true; with it false the fault branches are
// never taken and trajectories are byte-identical to a run without the
// subsystem.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/topology.h"
#include "sim/random.h"
#include "sim/time.h"

namespace pabr::fault {

/// A deterministic outage window scripted directly in the config —
/// the test/bench counterpart of the stochastic MTBF/MTTR timelines.
struct ScriptedOutage {
  enum class Kind { kLink, kStation };
  Kind kind = Kind::kLink;
  geom::CellId a = geom::kNoCell;  ///< station, or one link endpoint
  geom::CellId b = geom::kNoCell;  ///< other link endpoint (kLink only)
  sim::Time from = 0.0;
  sim::Time until = 0.0;  ///< half-open [from, until)
};

struct FaultConfig {
  /// Master switch; with false the simulators never construct an
  /// injector and every fault branch is dead.
  bool enabled = false;
  /// Fault-process seed, independent of the simulation seed so the same
  /// traffic can be replayed under different fault schedules.
  std::uint64_t seed = 1;

  // Stochastic backhaul-link failures: mean up-time / mean repair time
  // of each (undirected) BS-BS link. 0 MTBF disables link faults.
  sim::Duration link_mtbf_s = 0.0;
  sim::Duration link_mttr_s = 30.0;

  // Per-message loss: probability that one signaling message (request or
  // reply, drawn independently) is dropped, and that it is delayed past
  // the receiver's timeout (equivalent to a loss for the sender).
  double message_loss = 0.0;
  double message_delay = 0.0;

  // Stochastic base-station outages. 0 MTBF disables them.
  sim::Duration station_mtbf_s = 0.0;
  sim::Duration station_mttr_s = 60.0;

  // Graceful-degradation knobs consumed by backhaul/signaling and the
  // reservation layer (documented in DESIGN.md §10).
  sim::Duration timeout_s = 0.05;   ///< per-request reply timeout
  int max_retries = 3;              ///< re-sends after the first attempt
  sim::Duration backoff_base_s = 0.05;  ///< first retry back-off
  sim::Duration backoff_max_s = 1.0;    ///< exponential back-off ceiling
  /// Static per-neighbour reservation floor substituted for the Eq. (5)
  /// contribution of an unreachable adjacent cell (Hong & Rappaport-style
  /// fallback, cf. ISSUE references).
  double degraded_floor_bu = 10.0;

  /// Deterministic outage windows OR-ed with the stochastic timelines.
  std::vector<ScriptedOutage> outages;
};

/// Outcome of one timeout+retry signaling exchange (see
/// FaultInjector::exchange_outcome).
struct ExchangeOutcome {
  bool delivered = false;
  int attempts = 0;  ///< total sends, 1..max_retries+1
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// Whether the (undirected) backhaul link a<->b is up at `t`.
  bool link_up(geom::CellId a, geom::CellId b, sim::Time t);

  /// Whether the base station of `cell` is up at `t`.
  bool station_up(geom::CellId cell, sim::Time t);

  /// Replays the full request/reply exchange from `from` to `to` at
  /// simulation time `t` through the timeout + bounded-backoff retry
  /// ladder. Pure given (config, from, to, t): callers on any code path
  /// (admission, reservation, audit) see the same outcome. Attempt k is
  /// delivered iff the link and destination station are up and neither
  /// the request nor the reply is dropped or delayed past the timeout.
  ExchangeOutcome exchange_outcome(geom::CellId from, geom::CellId to,
                                   sim::Time t);

  /// The deterministic back-off inserted before re-send `attempt`
  /// (1-based): min(backoff_base * 2^(attempt-1), backoff_max). Exposed
  /// so the retry schedule itself is testable.
  sim::Duration backoff_before_attempt(int attempt) const;

  /// Stateless per-message loss/delay draw for attempt `attempt` of the
  /// exchange keyed by (from, to, t); `salt` separates the request,
  /// reply, and delay draws. Exposed for the determinism tests.
  bool message_lost(geom::CellId from, geom::CellId to, sim::Time t,
                    int attempt, std::uint32_t salt, double probability) const;

  /// Snapshot io (src/snapshot/, Ar = Encoder or Decoder) of the lazily
  /// materialized timelines: RNG stream position, flip list and coverage
  /// horizon per entity, in sorted key order so the payload is
  /// deterministic. The timelines are reconstructable from the fault seed
  /// alone, but restoring them verbatim keeps a resumed run's memoization
  /// state — and therefore its RNG stream positions — bitwise identical.
  /// A load expects a freshly constructed injector with the same config.
  template <class Ar>
  void io(Ar& ar);

 private:
  /// Alternating up/down interval timeline of one entity, generated
  /// lazily from its own derived stream. `flips[0]` is the end of the
  /// initial up interval, `flips[1]` the end of the following down
  /// interval, and so on; the state at `t` is up iff the number of flips
  /// at or before `t` is even.
  struct Timeline {
    Timeline(std::uint64_t stream_seed, sim::Duration mtbf_s,
             sim::Duration mttr_s)
        : mtbf(mtbf_s), mttr(mttr_s), rng(stream_seed) {}

    sim::Duration mtbf;
    sim::Duration mttr;
    sim::Rng rng;  ///< private stream; draws only ever append to `flips`
    std::vector<sim::Time> flips;
    sim::Time covered_until = 0.0;

    bool up_at(sim::Time t);

   private:
    void extend_past(sim::Time t);
  };

  bool scripted_link_down(geom::CellId a, geom::CellId b, sim::Time t) const;
  bool scripted_station_down(geom::CellId cell, sim::Time t) const;
  Timeline& link_timeline(geom::CellId a, geom::CellId b);
  Timeline& station_timeline(geom::CellId cell);

  FaultConfig config_;
  std::unordered_map<std::uint64_t, Timeline> links_;
  std::unordered_map<geom::CellId, Timeline> stations_;
};

}  // namespace pabr::fault
