// Target-reservation bandwidth computation (paper §4.1, Eqs. 5-6).
//
// For a target cell 0 with adjacent cells A_0, each adjacent cell i
// contributes
//
//   B_{i,0} = sum_{j in C_i} b(C_{i,j}) * p_h(C_{i,j} -> 0)      (Eq. 5)
//
// and the target reservation bandwidth of cell 0 is
//
//   B_{r,0} = sum_{i in A_0} B_{i,0}                              (Eq. 6)
//
// where p_h is evaluated with the *target* cell's estimation window
// T_est,0 (§4.1: "the estimation time T_est of cell next ... will be used
// in Eq. (4)").
//
// This is the one Eq. (5) of the repository: `handin_term` is the
// per-connection term and `expected_handin_bandwidth` the from-scratch
// sum over a cell's id-sorted connection table. The incremental engine
// (reservation/engine.h) caches the probe form of the term;
// core::CellCore runs the scratch sum.
#pragma once

#include <functional>
#include <vector>

#include "geom/topology.h"
#include "hoef/estimator.h"
#include "sim/time.h"
#include "traffic/connection.h"

namespace pabr::reservation {

/// Next cell a route-known mobile camped in `cell` and moving in
/// `direction` will enter (the §7 ITS/GPS extension); null when the
/// deployment has no route-known mobiles (e.g. the hex grid).
using RouteNextFn =
    std::function<geom::CellId(geom::CellId cell, int direction)>;

/// One Eq. (5) term and the time it stays bitwise valid for.
struct HandinTerm {
  double value = 0.0;  ///< b * p_h
  sim::Time valid_until = sim::kInfiniteDuration;
};

/// The Eq. (5) term of connection `entry`, camped in `source`, toward
/// `target` within `t_est`. b is the reservation bandwidth: under adaptive
/// QoS, "bandwidth reservation is made on the basis of the minimum QoS of
/// each connection" (§1). A route-known mobile (§7) knows its next cell,
/// so the estimation function only estimates the hand-off time: toward
/// its route's next cell it uses any_handoff_probability, toward any other
/// cell it contributes 0 for as long as it stays camped in `source`.
///
/// With kProbe the estimator's probe lookups also give the horizon the
/// value stays valid for (the incremental engine caches on it); without,
/// valid_until stays infinite. The value is bitwise the same either way.
template <bool kProbe>
HandinTerm handin_term(const hoef::HandoffEstimator& estimator,
                       const RouteNextFn& route_next, geom::CellId source,
                       geom::CellId target,
                       const traffic::ConnectionEntry& entry, sim::Time now,
                       sim::Duration t_est) {
  const sim::Duration extant = now - entry.view.entered_cell_at;
  const geom::CellId prev = entry.view.prev_cell;
  hoef::ProbeResult ph;  // probability 0, valid forever
  if (entry.view.route_known) {
    if (route_next != nullptr &&
        route_next(source, entry.view.direction) == target) {
      if constexpr (kProbe) {
        ph = estimator.any_handoff_probability_probe(now, prev, extant, t_est);
      } else {
        ph.probability =
            estimator.any_handoff_probability(now, prev, extant, t_est);
      }
    }
  } else if constexpr (kProbe) {
    ph = estimator.handoff_probability_probe(now, prev, target, extant, t_est);
  } else {
    ph.probability =
        estimator.handoff_probability(now, prev, target, extant, t_est);
  }
  return {static_cast<double>(entry.view.reserve_bandwidth) * ph.probability,
          ph.valid_until};
}

/// Eq. (5) from scratch: the expected hand-in bandwidth from `source`
/// (its estimator and id-sorted connection `table`) into `target` within
/// the target's `t_est`, added term by term in table order onto
/// `running` — the association order of the incremental engine.
double expected_handin_bandwidth(
    const hoef::HandoffEstimator& estimator,
    const std::vector<traffic::ConnectionEntry>& table,
    const RouteNextFn& route_next, geom::CellId source, geom::CellId target,
    sim::Time now, sim::Duration t_est, double running = 0.0);

}  // namespace pabr::reservation
