// The system-level invariant sweeps (catalogue in audit/invariants.h).
//
// Defined as members of core::CellCore (the per-cell sweeps every serial
// engine shares) and of the two simulators (their mobile tables and the
// linear road's wired backbone), so the audit can see private state
// without widening the public API; kept in src/audit/ because the sweeps
// ARE the audit subsystem — the systems only own the per-event trigger.
//
// Every check here is trajectory-transparent: the sweep reads occupancy
// and metrics, replays reservation maths through paths that are bitwise
// equal to the production ones (the incremental engine's caches may warm
// up, which by construction never changes a returned value), and draws
// from no RNG stream. Running with audit_every = 1 therefore produces the
// exact same simulation as running with the audit off.
#include <vector>

#include "audit/invariants.h"
#include "core/cell_core.h"
#include "core/hex_system.h"
#include "core/system.h"
#include "util/check.h"

namespace pabr::core {

void CellCore::audit_cells() const {
  // I1-I3: per-cell table ordering, B_u conservation, capacity ceiling.
  for (const Cell& c : cells_) audit::audit_cell(c);

  // I6: no admission bracket may leak past an event boundary.
  PABR_CHECK(!accountant_.admission_open(),
             "audit: admission left open at event boundary");
}

void CellCore::audit_reservations(sim::Time t) {
  // I5: the incremental engine must reproduce the from-scratch Eq. (6)
  // rescan bitwise. Accumulating here only warms the engine's caches —
  // never changes a value it will return — so the check is silent.
  //
  // I9 (degraded mode): under fault injection the comparison runs per
  // (neighbour -> cell) pair and skips pairs that are currently
  // unreachable (both replay paths substitute the same static floor, so
  // there are no terms to compare) or stale (the cache was intentionally
  // dropped; it is re-synced and bitwise-audited by the production path
  // at the next successful exchange). Stale pairs must NOT be
  // accumulated here — that would rebuild their caches and silently
  // discharge the production re-sync audit, making the sweep
  // trajectory-visible.
  if (incremental_) {
    for (geom::CellId cell = first_; cell < end_; ++cell) {
      const sim::Duration t_est = stations_[at(cell)].window().t_est();
      if (faults_on()) {
        for (geom::CellId i : topology_.neighbors(cell)) {
          if (!delivered(cell, i, t)) continue;
          if (engine_.is_stale(i, cell)) continue;
          const double incremental = engine_.accumulate(
              i, cell, cells_[index(i)].connections(),
              stations_[index(i)].estimator(), t, t_est, 0.0);
          PABR_CHECK(incremental == contribution(i, cell, t, t_est, 0.0),
                     "audit: incremental pair diverged from scratch rescan");
        }
        continue;
      }
      double incremental = 0.0;
      for (geom::CellId i : topology_.neighbors(cell)) {
        incremental = engine_.accumulate(
            i, cell, cells_[index(i)].connections(),
            stations_[index(i)].estimator(), t, t_est, incremental);
      }
      PABR_CHECK(incremental == scratch_reservation(cell, t),
                 "audit: incremental B_r diverged from scratch rescan");
    }
  }

  // I8: estimator event stores.
  for (const BaseStation& s : stations_) s.estimator().audit();
}

void CellularSystem::audit_invariants() {
  core_.audit_cells();

  // I4: mobile table <-> cell entries (primary + soft hand-off dual leg).
  const auto n = static_cast<std::size_t>(config_.num_cells);
  std::vector<int> residents(n, 0);
  std::vector<double> access_bu(n, 0.0);
  double uplink_bu = 0.0;
  for (const auto& [id, rec] : mobiles_) {
    PABR_CHECK(core_.owns(rec.m.cell),
               "audit: mobile resides in invalid cell");
    const auto cell = static_cast<std::size_t>(rec.m.cell);
    PABR_CHECK(rec.m.current_bandwidth > 0,
               "audit: mobile with non-positive bandwidth");
    PABR_CHECK(audit::held_bandwidth(core_.cell(rec.m.cell), id) ==
                   rec.m.current_bandwidth,
               "audit: cell entry bandwidth != mobile's current bandwidth");
    ++residents[cell];
    access_bu[cell] += static_cast<double>(rec.m.current_bandwidth);
    uplink_bu += static_cast<double>(rec.m.current_bandwidth);
    if (rec.dual()) {
      PABR_CHECK(core_.owns(rec.dual_cell), "audit: dual leg in invalid cell");
      PABR_CHECK(rec.dual_cell != rec.m.cell,
                 "audit: dual leg in the mobile's own cell");
      PABR_CHECK(rec.dual_bw > 0, "audit: dual leg without bandwidth");
      PABR_CHECK(audit::held_bandwidth(core_.cell(rec.dual_cell), id) ==
                     rec.dual_bw,
                 "audit: dual-leg entry bandwidth != pre-allocated grant");
      ++residents[static_cast<std::size_t>(rec.dual_cell)];
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    PABR_CHECK(residents[c] == core_.cells()[c].connection_count(),
               "audit: resident count != cell connection count");
  }

  // I7: wired occupancy mirrors the wireless side. Soft hand-off dual
  // legs are radio-only — the wired re-route happens at the crossing —
  // so only primary residency is charged.
  if (backbone_ != nullptr) {
    for (std::size_t c = 0; c < n; ++c) {
      const wired::Link& acc = backbone_->access(static_cast<geom::CellId>(c));
      audit::audit_link(acc);
      PABR_CHECK(acc.used() == access_bu[c],
                 "audit: access link != resident wireless occupancy");
    }
    audit::audit_link(backbone_->uplink());
    PABR_CHECK(backbone_->uplink().used() == uplink_bu,
               "audit: MSC uplink != total wireless occupancy");
  }

  core_.audit_reservations(simulator_.now());
}

void HexCellularSystem::audit_invariants() {
  core_.audit_cells();

  std::vector<int> residents(core_.cells().size(), 0);
  for (const auto& [id, m] : mobiles_) {
    PABR_CHECK(core_.owns(m.cell), "audit: mobile resides in invalid cell");
    PABR_CHECK(audit::held_bandwidth(core_.cell(m.cell), id) == m.bandwidth(),
               "audit: cell entry bandwidth != mobile's bandwidth");
    ++residents[static_cast<std::size_t>(m.cell)];
  }
  for (std::size_t c = 0; c < residents.size(); ++c) {
    PABR_CHECK(residents[c] == core_.cells()[c].connection_count(),
               "audit: resident count != cell connection count");
  }

  core_.audit_reservations(simulator_.now());
}

}  // namespace pabr::core
