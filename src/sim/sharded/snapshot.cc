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

void put_event(snapshot::Encoder& e, const PendingEvent& ev) {
  e.f64(ev.time);
  e.u32(static_cast<std::uint32_t>(ev.kind));
  e.i64(ev.cell);
  e.u64(ev.id);
  e.u64(ev.mobile.id);
  e.u32(static_cast<std::uint32_t>(ev.mobile.service));
  e.f64(ev.mobile.speed_kmh);
  e.i64(ev.mobile.prev);
  e.f64(ev.mobile.entered_at);
  e.f64(ev.mobile.expires_at);
  e.i64(ev.to);
}

PendingEvent get_event(snapshot::Decoder& d) {
  PendingEvent ev;
  ev.time = d.f64();
  ev.kind = static_cast<EventKind>(d.u32());
  ev.cell = static_cast<geom::CellId>(d.i64());
  ev.id = d.u64();
  ev.mobile.id = d.u64();
  ev.mobile.service = static_cast<traffic::ServiceClass>(d.u32());
  ev.mobile.speed_kmh = d.f64();
  ev.mobile.prev = static_cast<geom::CellId>(d.i64());
  ev.mobile.entered_at = d.f64();
  ev.mobile.expires_at = d.f64();
  ev.to = static_cast<geom::CellId>(d.i64());
  return ev;
}

}  // namespace

std::uint64_t ShardedExecutor::config_digest(const ShardedConfig& config) {
  snapshot::Encoder e;
  snapshot::put_config(e, config.system);
  e.f64(config.duration_s);
  e.f64(config.warmup_s);
  e.f64(config.slot_override_s);
  return util::fnv1a_bytes(e.bytes().data(), e.bytes().size());
}

void ShardedExecutor::write_checkpoint(
    std::ostream& os, std::uint64_t slot,
    const std::vector<std::unique_ptr<Shard>>& shards) {
  const sim::Time t0 = slot_ * static_cast<double>(slot);
  snapshot::Writer w(snapshot::SystemKind::kSharded, config_digest(config_),
                     t0, config_.system.seed);

  {
    auto& e = w.begin_section("config");
    snapshot::put_config(e, config_.system);
    e.f64(config_.duration_s);
    e.f64(config_.warmup_s);
    e.f64(config_.slot_override_s);
  }
  {
    auto& e = w.begin_section("slot");
    e.u64(slot);
    e.f64(slot_);
    e.u64(num_slots_);
    e.u64(reset_slot_);
    std::uint64_t events = 0;
    for (const auto& shard : shards) events += shard->events_processed();
    e.u64(events);
  }
  {
    auto& e = w.begin_section("cells");
    for (geom::CellId c = 0; c < grid_.num_cells(); ++c) {
      const Shard& owner =
          *shards[static_cast<std::size_t>(partition_.owner(c))];
      owner.save_cell_state(e, c);
    }
  }
  {
    // Union of every calendar AND every undrained mailbox (events routed
    // during the previous slot's P4 still sit in the outboxes at a
    // slot-start barrier), sorted by the total composite key.
    auto& e = w.begin_section("calendar");
    std::vector<PendingEvent> events;
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
    e.u32(static_cast<std::uint32_t>(events.size()));
    for (const PendingEvent& ev : events) put_event(e, ev);
  }
  {
    // Per-shard accumulators merged into exact global sums (the summands
    // are integer-valued, so the order of addition cannot matter).
    auto& e = w.begin_section("accountant");
    double per_admission_sum = 0.0;
    std::uint64_t admissions = 0;
    std::uint64_t total = 0;
    for (const auto& shard : shards) {
      const auto& acc = shard->core().accountant();
      per_admission_sum += acc.per_admission_sum();
      admissions += acc.admissions_observed();
      total += acc.total_br_calculations();
    }
    e.f64(per_admission_sum);
    e.u64(admissions);
    e.u64(total);
  }
  {
    // Counters only: u64 sums are exact and shard-order independent.
    // Histogram sums are floating-point merges whose value depends on
    // the partition, so they are excluded from the checkpoint (DESIGN.md
    // §13 documents the resulting post-resume histogram divergence).
    auto& e = w.begin_section("telemetry");
    const bool enabled = shards.front()->core().telemetry().enabled();
    e.b(enabled);
    if (enabled) {
      std::vector<telemetry::MetricsSnapshot> snaps;
      for (const auto& shard : shards) {
        snaps.push_back(shard->core().telemetry().snapshot());
      }
      const telemetry::MetricsSnapshot merged =
          telemetry::merge_snapshots(snaps);
      e.u32(static_cast<std::uint32_t>(merged.counters.size()));
      for (const auto& [name, value] : merged.counters) {
        e.str(name);
        e.u64(value);
      }
    }
  }

  w.finish(os);
}

std::uint64_t ShardedExecutor::restore_checkpoint(
    std::istream& is, std::vector<std::unique_ptr<Shard>>& shards) {
  snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kSharded);
  PABR_CHECK(reader.header().config_digest == config_digest(config_),
             "snapshot config digest mismatch");

  std::uint64_t slot = 0;
  {
    auto d = reader.open("slot");
    slot = d.u64();
    const double saved_slot_len = d.f64();
    PABR_CHECK(saved_slot_len == slot_, "snapshot slot length mismatch");
    PABR_CHECK(d.u64() == num_slots_, "snapshot slot count mismatch");
    PABR_CHECK(d.u64() == reset_slot_, "snapshot warm-up slot mismatch");
    const std::uint64_t events = d.u64();
    d.finish();
    const sim::Time t0 = slot_ * static_cast<double>(slot);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      shards[s]->clear_calendar();
      shards[s]->restore_progress(s == 0 ? events : 0, t0);
    }
  }
  {
    auto d = reader.open("cells");
    for (geom::CellId c = 0; c < grid_.num_cells(); ++c) {
      Shard& owner = *shards[static_cast<std::size_t>(partition_.owner(c))];
      owner.restore_cell_state(d, c);
    }
    d.finish();
  }
  {
    auto d = reader.open("calendar");
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const PendingEvent ev = get_event(d);
      shards[static_cast<std::size_t>(partition_.owner(ev.cell))]->push_event(
          ev);
    }
    d.finish();
  }
  {
    auto d = reader.open("accountant");
    const double per_admission_sum = d.f64();
    const std::uint64_t admissions = d.u64();
    const std::uint64_t total = d.u64();
    d.finish();
    // The aggregate lands on shard 0 (the others start from zero): the
    // end-of-run merge only ever reads the cross-shard sums.
    shards.front()->core().accountant().restore(per_admission_sum,
                                                admissions, total);
  }
  {
    auto d = reader.open("telemetry");
    const bool enabled = d.b();
    PABR_CHECK(enabled == shards.front()->core().telemetry().enabled(),
               "snapshot/build disagree on telemetry");
    if (enabled) {
      telemetry::MetricsSnapshot snap;
      const std::uint32_t n = d.u32();
      snap.counters.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::string name = d.str();
        const std::uint64_t value = d.u64();
        snap.counters.emplace_back(name, value);
      }
      shards.front()->core().telemetry().registry().restore(snap);
    }
    d.finish();
  }

  return slot;
}

}  // namespace pabr::sim::sharded
