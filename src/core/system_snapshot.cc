// CellularSystem::save/load — full simulator state capture into the
// src/snapshot container (DESIGN.md §13).
//
// One function template, snapshot_io, lists the sections in file order
// for both directions. Save serializes every state-bearing member plus
// the pending event calendar as (fire time, insertion seq) pairs. Load
// reconstructs the system from the embedded config, then re-schedules the
// saved events in ascending original-seq order: fresh consecutive seqs
// preserve the original relative order of time ties, which is all the
// event queue's comparator looks at, so the resumed trajectory is
// bitwise identical to the uninterrupted run (invariant I10).
#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

void CellularSystem::save(std::ostream& os) {
  snapshot::Writer w(snapshot::SystemKind::kLinear,
                     snapshot::config_digest(config_), simulator_.now(),
                     config_.seed);
  snapshot::section(w, "config", [&](auto& e) { snapshot::io(e, config_); });
  snapshot_io(w);
  w.finish(os);
}

std::unique_ptr<CellularSystem> CellularSystem::load(std::istream& is) {
  const snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kLinear);
  SystemConfig cfg;
  snapshot::section(reader, "config",
                    [&](auto& d) { snapshot::io(d, cfg); });
  PABR_CHECK(snapshot::config_digest(cfg) == reader.header().config_digest,
             "snapshot config digest mismatch");

  auto system = std::make_unique<CellularSystem>(std::move(cfg));
  system->snapshot_io(reader);
  return system;
}

template <class Doc>
void CellularSystem::snapshot_io(Doc& doc) {
  constexpr bool kLoad = Doc::kDecoding;
  if constexpr (kLoad) {
    // Drop the constructor's bootstrap arrival event; every pending event
    // comes from the snapshot. The constructor's draw from the workload
    // stream is erased below when the RNG states are restored.
    simulator_.reset();
    next_arrival_ = sim::EventHandle{};
    PABR_CHECK(mobiles_.empty() && pending_retries_.empty(),
               "snapshot load onto a used system");
  }
  snapshot::Calendar calendar(doc, simulator_, events_since_audit_);
  snapshot::section(doc, "rngs", [&](auto& ar) {
    std::string workload = workload_.rng_state();
    traffic::ConnectionId next_id = workload_.next_id();
    std::string retry = retry_.rng_state();
    ar.str(workload);
    ar.u64(next_id);
    ar.str(retry);
    snapshot::io(ar, route_rng_);
    if constexpr (kLoad) {
      workload_.restore(workload, next_id);
      retry_.restore_rng(retry);
    }
  });
  core_.io_cells(doc);
  snapshot::section(doc, "traces", [&](auto& ar) {
    // Global cell order, not map order, so the payload is deterministic.
    std::vector<geom::CellId> cells;
    if constexpr (!kLoad) {
      for (geom::CellId c = 0; c < config_.num_cells; ++c) {
        if (traces_.count(c) != 0) cells.push_back(c);
      }
    }
    snapshot::items(ar, cells, 20, [&](geom::CellId& cell) {
      ar.i64(cell);
      const auto it = traces_.find(cell);
      PABR_CHECK(it != traces_.end(), "snapshot traces an untraced cell");
      snapshot::io(ar, it->second.t_est);
      snapshot::io(ar, it->second.br);
      snapshot::io(ar, it->second.phd);
    });
    PABR_CHECK(cells.size() == traces_.size(),
               "snapshot trace-cell set mismatch");
  });
  snapshot::section(doc, "mobiles", [&](auto& ar) {
    // Id order, not hash order, so the payload is deterministic.
    std::vector<MobileRecord*> recs;
    if constexpr (!kLoad) {
      for (auto& [id, rec] : mobiles_) recs.push_back(&rec);
      std::sort(recs.begin(), recs.end(),
                [](const MobileRecord* a, const MobileRecord* b) {
                  return a->m.id < b->m.id;
                });
    }
    const std::size_t n = ar.count(recs.size(), 128);
    for (std::size_t i = 0; i < n; ++i) {
      MobileRecord loaded;
      MobileRecord* r = kLoad ? &loaded : recs[i];
      snapshot::io(ar, r->m);
      ar.i64(r->crossing_to);
      ar.f64(r->crossing_boundary_km);
      ar.i64(r->dual_cell);
      ar.i64(r->dual_bw);
      const traffic::ConnectionId id = r->m.id;
      if constexpr (kLoad) {
        auto [it, inserted] = mobiles_.emplace(id, std::move(loaded));
        PABR_CHECK(inserted, "duplicate mobile id in snapshot");
        r = &it->second;
      }
      calendar.slot(ar, r->expiry, [this, r, id](sim::Time when) {
        r->expiry = simulator_.schedule_at(when, [this, id] {
          handle_expiry(id);
          maybe_audit();
        });
      });
      calendar.slot(ar, r->crossing, [this, r, id](sim::Time when) {
        r->crossing = simulator_.schedule_at(when, [this, id] {
          handle_crossing(id);
          maybe_audit();
        });
      });
      calendar.slot(ar, r->zone_entry, [this, r, id](sim::Time when) {
        r->zone_entry = simulator_.schedule_at(when, [this, id] {
          handle_zone_entry(id);
          maybe_audit();
        });
      });
    }
  });
  snapshot::section(doc, "arrival", [&](auto& ar) {
    calendar.slot(ar, next_arrival_,
                  [this](sim::Time when) { schedule_arrival_at(when); });
  });
  snapshot::section(doc, "retries", [&](auto& ar) {
    ar.u64(next_retry_token_);
    auto it = pending_retries_.begin();  // std::map: sorted by token
    const std::size_t n = ar.count(pending_retries_.size(), 92);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t token = 0;
      sim::EventQueue::PendingInfo p{};
      traffic::ConnectionRequest req;
      if constexpr (!kLoad) {
        const auto pending = simulator_.pending(it->second.handle);
        PABR_CHECK(pending.has_value(), "tracked retry has no pending event");
        token = it->first;
        p = *pending;
        req = it->second.request;
        ++it;
      }
      ar.u64(token);
      snapshot::io(ar, p);
      snapshot::io(ar, req);
      if constexpr (kLoad) {
        calendar.add(p, [this, token, req](sim::Time when) mutable {
          schedule_retry_event(token, when, std::move(req));
        });
      }
    }
  });
  core_.io_accountant(doc);
  snapshot::section(doc, "interconnect",
                    [&](auto& ar) { snapshot::io(ar, interconnect_); });
  snapshot::section(doc, "load", [&](auto& ar) {
    std::vector<double> hours;
    if constexpr (!kLoad) hours = load_tracker_.hourly_bandwidth();
    snapshot::items(ar, hours, 8, [&](double& h) { ar.f64(h); });
    if constexpr (kLoad) load_tracker_.restore(std::move(hours));
  });
  snapshot::section(doc, "wired", [&](auto& ar) {
    bool has_backbone = backbone_ != nullptr;
    ar.b(has_backbone);
    PABR_CHECK(has_backbone == (backbone_ != nullptr),
               "snapshot/config disagree on wired backbone");
    snapshot::io(ar, wired_blocks_);
    snapshot::io(ar, wired_drops_);
    if (backbone_ != nullptr) {
      snapshot::io(ar, *backbone_, config_.num_cells);
    }
  });
  core_.io_tail(doc);
  if constexpr (kLoad) calendar.replay();
}

}  // namespace pabr::core
