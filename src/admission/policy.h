// Admission-control schemes of §4.3 (paper Table 1):
//
//   AC1    — recompute B_r in the current cell only, then Eq. (1):
//            sum b + b_new <= C(0) - B_r,0.
//   AC2    — additionally every adjacent cell recomputes B_r and checks
//            that it can actually reserve it: sum b <= C(i) - B_r,i.
//   AC3    — hybrid: only adjacent cells that *appear* unable to reserve
//            their previously-computed target (sum b + B_r^curr > C(i))
//            recompute and participate.
//   Static — fixed G BUs set aside in every cell (Hong & Rappaport 1986);
//            no B_r computation at all.
//
// Policies are stateless visitors over an AdmissionContext, which the core
// CellularSystem implements; every `recompute_reservation` call is the
// unit the paper's N_calc complexity metric counts.
#pragma once

#include <memory>
#include <string>

#include "geom/topology.h"
#include "telemetry/metrics.h"
#include "traffic/connection.h"

namespace pabr::admission {

/// Absolute slack of every admission-boundary comparison. Occupancy and
/// demands are integer-valued BUs (exactly representable), but B_r is a
/// sum of b * p_h products, so `capacity - B_r` carries rounding noise in
/// its last bits; the tolerance keeps a request sitting exactly on the
/// boundary from being decided by that noise.
inline constexpr double kAdmissionTolerance = 1e-9;

/// The single boundary test behind Eq. (1) and all of its relatives:
/// true when `demand` more BUs on top of `used` still fit `capacity` net
/// of `reserved`. Every threshold comparison — AC1/AC2/AC3's admit and
/// participation tests, the static scheme's guard bandwidth, NS-DCA's
/// hard FCA check, and the wired access/uplink fit tests — is phrased
/// through this one helper with one associativity and one tolerance, so
/// two B_r values that agree bitwise (incremental vs scratch, cached vs
/// recomputed) can never flip an admit/reject decision by being combined
/// in algebraically different ways.
inline bool fits_budget(double used, double demand, double capacity,
                        double reserved) {
  return used + demand <= (capacity - reserved) + kAdmissionTolerance;
}

/// Negated form for "cannot (fully) reserve its target" style tests.
inline bool exceeds_budget(double used, double demand, double capacity,
                           double reserved) {
  return !fits_budget(used, demand, capacity, reserved);
}

/// The system facade a policy needs: capacities, occupancy, neighbour
/// lists, and on-demand target-reservation computation.
class AdmissionContext {
 public:
  virtual ~AdmissionContext() = default;

  virtual double capacity(geom::CellId cell) const = 0;
  virtual double used_bandwidth(geom::CellId cell) const = 0;
  virtual const std::vector<geom::CellId>& adjacent(
      geom::CellId cell) const = 0;

  /// Recomputes the target reservation bandwidth B_r of `cell` from the
  /// current traffic in its adjacent cells (Eqs. 4-6), stores it as the
  /// cell's current target, and returns it. Counted once per call in
  /// N_calc.
  virtual double recompute_reservation(geom::CellId cell) = 0;

  /// The cell's most recently computed target B_r^curr (possibly stale;
  /// 0 before any computation). AC3's participation test uses this.
  virtual double current_reservation(geom::CellId cell) const = 0;

  /// True when the BS of `neighbor` can currently be consulted from
  /// `cell` over the signalling backhaul. Always true in the default
  /// (fault-free) system; under fault injection the core system probes
  /// the link/station state. AC2/AC3 skip unreachable neighbours and
  /// fall back to their AC1-local test for those cells.
  virtual bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor) {
    (void)cell;
    (void)neighbor;
    return true;
  }

  /// Reference implementation of recompute_reservation: a full from-
  /// scratch rescan of all adjacent cells' connections with NO contribution
  /// caching, no stored side effects and no N_calc accounting. Systems with
  /// an incremental fast path override this so equivalence tests and the
  /// micro benchmarks can compare the two; the default forwards to
  /// recompute_reservation (for contexts with no cache there is nothing to
  /// compare against).
  virtual double scratch_reservation(geom::CellId cell) {
    return recompute_reservation(cell);
  }
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string name() const = 0;

  /// Decides whether a new connection of `b_new` BUs may be admitted in
  /// `cell`. May call `recompute_reservation` on any cell it consults.
  virtual bool admit(AdmissionContext& sys, geom::CellId cell,
                     traffic::Bandwidth b_new) = 0;

  /// Registers this policy's decision counters ("<policy>.admits",
  /// "<policy>.rejects", plus scheme-specific extras such as AC3's
  /// participation tally) on `registry` and starts bumping them on every
  /// admit() call. The default keeps the policy uninstrumented; bumps are
  /// no-ops until bound.
  virtual void bind_telemetry(telemetry::Registry& registry) {
    (void)registry;
  }
};

/// kNsDca is the Naghshineh-Schwartz distributed admission baseline (the
/// paper's ref. [10], see ns_policy.h).
enum class PolicyKind { kAc1, kAc2, kAc3, kStatic, kNsDca };

const char* policy_kind_name(PolicyKind kind);

struct NsConfig;  // ns_policy.h

/// Factory. `static_g` is the permanently reserved bandwidth used only by
/// the static policy (the paper evaluates G = 10 BUs); `ns` configures
/// only the kNsDca baseline (defaults used when null).
std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind,
                                             double static_g = 10.0,
                                             const NsConfig* ns = nullptr);

}  // namespace pabr::admission
