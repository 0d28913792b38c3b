// HexCellularSystem::save/load — the 2-D simulator's snapshot (see
// core/system_snapshot.cc for the shared design; same section protocol,
// same re-schedule-by-original-seq restore rule, invariant I10).
#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "core/hex_system.h"
#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

void HexCellularSystem::save(std::ostream& os) {
  snapshot::Writer w(snapshot::SystemKind::kHex,
                     snapshot::config_digest(config_), simulator_.now(),
                     config_.seed);
  snapshot::section(w, "config", [&](auto& e) { snapshot::io(e, config_); });
  snapshot_io(w);
  w.finish(os);
}

std::unique_ptr<HexCellularSystem> HexCellularSystem::load(std::istream& is) {
  const snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kHex);
  HexSystemConfig cfg;
  snapshot::section(reader, "config",
                    [&](auto& d) { snapshot::io(d, cfg); });
  PABR_CHECK(snapshot::config_digest(cfg) == reader.header().config_digest,
             "snapshot config digest mismatch");

  auto system = std::make_unique<HexCellularSystem>(std::move(cfg));
  system->snapshot_io(reader);
  return system;
}

template <class Doc>
void HexCellularSystem::snapshot_io(Doc& doc) {
  constexpr bool kLoad = Doc::kDecoding;
  if constexpr (kLoad) {
    simulator_.reset();
    next_arrival_ = sim::EventHandle{};
    PABR_CHECK(mobiles_.empty(), "snapshot load onto a used system");
  }
  snapshot::Calendar calendar(doc, simulator_, events_since_audit_);
  snapshot::section(doc, "rngs", [&](auto& ar) {
    snapshot::io(ar, arrival_rng_);
    snapshot::io(ar, movement_rng_);
  });
  core_.io_cells(doc);
  snapshot::section(doc, "mobiles", [&](auto& ar) {
    // Id order, not hash order, so the payload is deterministic.
    std::vector<HexMobile*> recs;
    if constexpr (!kLoad) {
      for (auto& [id, m] : mobiles_) recs.push_back(&m);
      std::sort(recs.begin(), recs.end(),
                [](const HexMobile* a, const HexMobile* b) {
                  return a->id < b->id;
                });
    }
    ar.u64(next_id_);
    const std::size_t n = ar.count(recs.size(), 46);
    for (std::size_t i = 0; i < n; ++i) {
      HexMobile loaded;
      HexMobile* m = kLoad ? &loaded : recs[i];
      ar.u64(m->id);
      ar.enumeration(m->service, traffic::ServiceClass::kVideo);
      ar.i64(m->cell);
      ar.i64(m->prev);
      ar.f64(m->entered_at);
      ar.f64(m->speed_kmh);
      const traffic::ConnectionId id = m->id;
      if constexpr (kLoad) {
        auto [it, inserted] = mobiles_.emplace(id, std::move(loaded));
        PABR_CHECK(inserted, "duplicate mobile id in snapshot");
        m = &it->second;
      }
      calendar.slot(ar, m->expiry, [this, m, id](sim::Time when) {
        m->expiry = simulator_.schedule_at(when, [this, id] {
          handle_expiry(id);
          maybe_audit();
        });
      });
      calendar.slot(ar, m->crossing, [this, m, id](sim::Time when) {
        m->crossing = simulator_.schedule_at(when, [this, id] {
          handle_crossing(id);
          maybe_audit();
        });
      });
    }
  });
  snapshot::section(doc, "arrival", [&](auto& ar) {
    calendar.slot(ar, next_arrival_,
                  [this](sim::Time when) { schedule_arrival_at(when); });
  });
  core_.io_accountant(doc);
  core_.io_tail(doc);
  if constexpr (kLoad) calendar.replay();
}

}  // namespace pabr::core
