// Shared snapshot state types (DESIGN.md §13): full configs (and their
// FNV-1a digests, stamped into the container header), statistics
// accumulators, the serial engines' event calendar, cell tables, base
// stations, traffic entities, the signalling accountant, the wired
// backbone, the incremental reservation engine and telemetry.
//
// Conventions: each type has ONE field list, an io(ar, x) run by the
// Encoder to save and by the Decoder to load (format.h). Integers that
// can hold geom::kNoCell (-1) travel as i64; enums as u32 through the
// enumeration hook; sequence lengths through the count hook; optionals
// as a presence flag followed by the payload. State that is restored
// through a production path (Cell::attach, Backbone::admit, Series::add,
// the restore() setters) is visited as a plain record, which the io()
// applies on decode only. Decoder::finish() in section() enforces that a
// load consumes exactly what the save wrote. The templates are defined in
// parts.cc and instantiated there for both archives.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backhaul/network.h"
#include "backhaul/signaling.h"
#include "core/base_station.h"
#include "core/cell.h"
#include "core/hex_system.h"
#include "core/metrics.h"
#include "core/system.h"
#include "mobility/mobile.h"
#include "reservation/engine.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/series.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "snapshot/format.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "traffic/connection.h"
#include "util/check.h"
#include "wired/backbone.h"

namespace pabr::snapshot {

// ---- Configs -------------------------------------------------------------
// The serialized config is both the "config" section payload and the
// input of the header's config digest, so a resume can refuse a snapshot
// taken under different parameters before touching any state.
template <class Ar>
void io(Ar& ar, core::SystemConfig& c);
template <class Ar>
void io(Ar& ar, core::HexSystemConfig& c);
std::uint64_t config_digest(const core::SystemConfig& c);
std::uint64_t config_digest(const core::HexSystemConfig& c);

// ---- Statistics accumulators --------------------------------------------
template <class Ar>
void io(Ar& ar, sim::Counter& c);
template <class Ar>
void io(Ar& ar, core::CellMetrics& m);
template <class Ar>
void io(Ar& ar, sim::Series& s);

/// A random stream's position (its value-serialized state).
template <class Ar>
void io(Ar& ar, sim::Rng& rng);

// ---- Event calendar ------------------------------------------------------
template <class Ar>
void io(Ar& ar, sim::EventQueue::PendingInfo& p);
template <class Ar>
void io(Ar& ar, std::optional<sim::EventQueue::PendingInfo>& p);

/// A serial engine's event calendar in a snapshot. Constructing it
/// visits the "simulator" section: clock, executed-event tally, queue
/// counters and the position in the audit cadence. Each pending event is
/// then visited where its owner is saved. On load the saved events are
/// queued, and replay() re-schedules them in ascending original-seq
/// order: fresh consecutive seqs preserve the original relative order of
/// time ties, which is all the event queue's comparator looks at, so the
/// resumed trajectory is bitwise identical (invariant I10).
class Calendar {
 public:
  using Schedule = std::function<void(sim::Time when)>;

  /// `Doc` is Writer (save) or const Reader (load).
  template <class Doc>
  Calendar(Doc& doc, sim::Simulator& s, int& events_since_audit);

  /// The pending slot `h`: presence flag, then fire time and seq. On
  /// load, `schedule` is queued with the saved fire time (nothing when
  /// the slot was empty).
  template <class Ar, class F>
  void slot(Ar& ar, const sim::EventHandle& h, F&& schedule) {
    std::optional<sim::EventQueue::PendingInfo> p;
    if constexpr (!Ar::kDecoding) p = sim_.pending(h);
    io(ar, p);
    if constexpr (Ar::kDecoding) {
      if (p) add(*p, std::forward<F>(schedule));
    }
  }
  /// Queues the re-scheduling of a saved event (load only).
  void add(const sim::EventQueue::PendingInfo& p, Schedule schedule) {
    saved_.push_back({p, std::move(schedule)});
  }
  /// Load only: re-schedules every queued event, then restores the clock
  /// and the queue counters.
  void replay();

 private:
  struct Saved {
    sim::EventQueue::PendingInfo pending;
    Schedule schedule;
  };
  sim::Simulator& sim_;
  sim::Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Saved> saved_;
};

// ---- Radio / control-plane state ----------------------------------------
/// The id-sorted connection table with each entry's reservation view; a
/// load re-attaches in saved order onto a freshly built cell, so
/// occupancy is rebuilt by the production attach path (integral BUs make
/// the resulting used() float exact).
template <class Ar>
void io(Ar& ar, core::Cell& cell);
template <class Ar>
void io(Ar& ar, core::BaseStation& bs);

// ---- Traffic entities ----------------------------------------------------
template <class Ar>
void io(Ar& ar, traffic::ConnectionRequest& r);
template <class Ar>
void io(Ar& ar, mobility::Mobile& m);

// ---- Backhaul ------------------------------------------------------------
template <class Ar>
void io(Ar& ar, backhaul::SignalingAccountant& a);
template <class Ar>
void io(Ar& ar, backhaul::InterconnectModel& ic);
/// Per-access-link attachment tables + wired reservations; the uplink is
/// rebuilt implicitly because a load replays Backbone::admit per leg.
template <class Ar>
void io(Ar& ar, wired::Backbone& b, int num_cells);

// ---- Reservation engine --------------------------------------------------
template <class Ar>
void io(Ar& ar, reservation::IncrementalEngine& eng);

// ---- Telemetry -----------------------------------------------------------
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
template <class Ar>
void io(Ar& ar, Counters& counters);
template <class Ar>
void io(Ar& ar, telemetry::MetricsSnapshot& s);
template <class Ar>
void io(Ar& ar, telemetry::TraceBuffer& b);

}  // namespace pabr::snapshot
