// Sharded checkpoint/resume (DESIGN.md §13).
//
// A checkpoint is taken at a slot-start barrier, when every shard has
// finished the previous slot's P4 and nothing is in flight. The payload
// is written in global cell order and canonical event order, so any
// shard count produces the identical file, and a file written under one
// shard count resumes under any other. Rebuilt rather than saved:
// slot-frozen mirrors (overwritten at the resume slot's P1-P3),
// reservation-engine pair caches (accumulate() on a cold cache is
// bitwise identical to the warm path), and fault-injector timelines
// (pure functions of the fault seed, materialized on demand).
#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/sharded/executor.h"
#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/digest.h"

namespace pabr::sim::sharded {

namespace {

template <class Ar>
void io(Ar& ar, PendingEvent& ev) {
  ar.f64(ev.time);
  ar.enumeration(ev.kind, EventKind::kExpiry);
  ar.i64(ev.cell);
  ar.u64(ev.id);
  ar.u64(ev.mobile.id);
  ar.enumeration(ev.mobile.service, traffic::ServiceClass::kVideo);
  ar.f64(ev.mobile.speed_kmh);
  ar.i64(ev.mobile.prev);
  ar.f64(ev.mobile.entered_at);
  ar.f64(ev.mobile.expires_at);
  ar.i64(ev.to);
}

/// The "config" section and the header digest: the hex system config
/// plus the slot grid.
template <class Ar>
void io(Ar& ar, ShardedConfig& c) {
  snapshot::io(ar, c.system);
  ar.f64(c.duration_s);
  ar.f64(c.warmup_s);
  ar.f64(c.slot_override_s);
}

}  // namespace

std::uint64_t ShardedExecutor::config_digest(const ShardedConfig& config) {
  snapshot::Encoder e;
  io(e, const_cast<ShardedConfig&>(config));  // the Encoder only reads
  return util::fnv1a_bytes(e.bytes().data(), e.bytes().size());
}

void ShardedExecutor::save_checkpoint(
    std::ostream& os, std::uint64_t slot,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  snapshot::Writer w(snapshot::SystemKind::kSharded, config_digest(config_),
                     slot_ * static_cast<double>(slot), config_.system.seed);
  snapshot::section(w, "config", [&](auto& e) { io(e, config_); });
  checkpoint_io(w, slot, shards);
  w.finish(os);
}

std::uint64_t ShardedExecutor::load_checkpoint(
    std::istream& is, const std::vector<std::unique_ptr<Shard>>& shards) {
  const snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kSharded);
  PABR_CHECK(reader.header().config_digest == config_digest(config_),
             "snapshot config digest mismatch");
  return checkpoint_io(reader, 0, shards);
}

template <class Doc>
std::uint64_t ShardedExecutor::checkpoint_io(
    Doc& doc, std::uint64_t slot,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  constexpr bool kLoad = Doc::kDecoding;
  snapshot::section(doc, "slot", [&](auto& ar) {
    double slot_len = slot_;
    std::uint64_t num_slots = num_slots_;
    std::uint64_t reset_slot = reset_slot_;
    std::uint64_t events = 0;
    for (const auto& shard : shards) events += shard->events_processed();
    ar.u64(slot);
    ar.f64(slot_len);
    ar.u64(num_slots);
    ar.u64(reset_slot);
    ar.u64(events);
    PABR_CHECK(slot_len == slot_, "snapshot slot length mismatch");
    PABR_CHECK(num_slots == num_slots_, "snapshot slot count mismatch");
    PABR_CHECK(reset_slot == reset_slot_, "snapshot warm-up slot mismatch");
    if constexpr (kLoad) {
      const sim::Time t0 = slot_ * static_cast<double>(slot);
      for (std::size_t s = 0; s < shards.size(); ++s) {
        shards[s]->clear_calendar();
        shards[s]->restore_progress(s == 0 ? events : 0, t0);
      }
    }
  });
  snapshot::section(doc, "cells", [&](auto& ar) {
    for (geom::CellId c = 0; c < grid_.num_cells(); ++c) {
      shards[static_cast<std::size_t>(partition_.owner(c))]->io_cell_state(
          ar, c);
    }
  });
  snapshot::section(doc, "calendar", [&](auto& ar) {
    // Union of every calendar AND every undrained mailbox (events routed
    // during the previous slot's P4 still sit in the outboxes at a
    // slot-start barrier), sorted by the total composite key.
    std::vector<PendingEvent> events;
    if constexpr (!kLoad) {
      for (const auto& shard : shards) {
        const auto& heap = shard->calendar().raw();
        events.insert(events.end(), heap.begin(), heap.end());
      }
      for (const auto& from : shared_.outbox) {
        for (const auto& box : from) {
          events.insert(events.end(), box.begin(), box.end());
        }
      }
      std::sort(events.begin(), events.end(), event_before);
    }
    snapshot::items(ar, events, 80, [&](PendingEvent& ev) { io(ar, ev); });
    if constexpr (kLoad) {
      for (const PendingEvent& ev : events) {
        shards[static_cast<std::size_t>(partition_.owner(ev.cell))]
            ->push_event(ev);
      }
    }
  });
  snapshot::section(doc, "accountant", [&](auto& ar) {
    // Saved: the per-shard accumulators merged into exact global sums
    // (the summands are integer-valued, so the order of addition cannot
    // matter). Loaded: the aggregate lands on shard 0 (the others start
    // from zero), since the end-of-run merge only reads the sums.
    backhaul::SignalingAccountant merged(grid_, nullptr);
    if constexpr (!kLoad) {
      double per_admission_sum = 0.0;
      std::uint64_t admissions = 0;
      std::uint64_t total = 0;
      for (const auto& shard : shards) {
        const auto& acc = shard->core().accountant();
        per_admission_sum += acc.per_admission_sum();
        admissions += acc.admissions_observed();
        total += acc.total_br_calculations();
      }
      merged.restore(per_admission_sum, admissions, total);
    }
    snapshot::io(ar, kLoad ? shards.front()->core().accountant() : merged);
  });
  snapshot::section(doc, "telemetry", [&](auto& ar) {
    // Counters only: u64 sums are exact and shard-order independent.
    // Histogram sums are floating-point merges whose value depends on
    // the partition, so they are excluded from the checkpoint (DESIGN.md
    // §13 documents the resulting post-resume histogram divergence).
    telemetry::Collector& tel = shards.front()->core().telemetry();
    bool enabled = tel.enabled();
    ar.b(enabled);
    PABR_CHECK(enabled == tel.enabled(),
               "snapshot/build disagree on telemetry");
    if (!enabled) return;
    telemetry::MetricsSnapshot merged;
    if constexpr (!kLoad) {
      std::vector<telemetry::MetricsSnapshot> snaps;
      for (const auto& shard : shards) {
        snaps.push_back(shard->core().telemetry().snapshot());
      }
      merged.counters = telemetry::merge_snapshots(snaps).counters;
    }
    snapshot::io(ar, merged.counters);
    if constexpr (kLoad) tel.registry().restore(merged);
  });
  return slot;
}

}  // namespace pabr::sim::sharded
