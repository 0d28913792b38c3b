#include "sim/sharded/shard.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::sim::sharded {

namespace {

std::string stream_name(const char* prefix, geom::CellId cell) {
  return std::string(prefix) + std::to_string(cell);
}

core::CellCoreConfig core_config(const ShardedConfig& config,
                                 const SharedState& shared, int index) {
  core::CellCoreConfig c = config.system.core_config(
      *shared.grid, shared.partition->first(index),
      shared.partition->last(index));
  c.telemetry.trace = false;  // per-shard trace rings are not merge-ordered
  // Each shard holds its own fault-injector REPLICA. All decisions are
  // pure functions of (fault seed, query args) and timeline memoization
  // is query-order independent, so replicas agree bitwise.
  return c;
}

}  // namespace

Shard::Shard(const ShardedConfig& config, SharedState& shared, int index)
    : config_(config),
      shared_(shared),
      index_(index),
      core_(core_config(config_, shared, index)) {
  const geom::CellId first = core_.first();
  const geom::CellId end = core_.end();
  const sim::RngFactory factory(config_.system.seed);

  const auto span = static_cast<std::size_t>(end - first);
  arrival_rng_.reserve(span);
  motion_rng_.reserve(span);
  ordinal_.assign(span, 0);
  out_slots_.resize(span);

  for (geom::CellId c = first; c < end; ++c) {
    const auto li = static_cast<std::size_t>(c - first);
    // One arrival and one mobility stream per CELL (not per shard): the
    // draw sequence each cell sees is then independent of the partition,
    // which is what makes trajectories shard-count invariant.
    arrival_rng_.emplace_back(
        factory.make(stream_name("sharded-arrivals-", c)));
    motion_rng_.emplace_back(factory.make(stream_name("sharded-motion-", c)));

    // P2 write plan: the contrib slot of pair (c -> target) is the
    // position of c inside the target's adjacency list.
    for (const geom::CellId target : shared_.grid->neighbors(c)) {
      const auto& back = shared_.grid->neighbors(target);
      for (std::size_t j = 0; j < back.size(); ++j) {
        if (back[j] == c) {
          out_slots_[li].push_back(
              OutSlot{target, shared_.contrib_offset[static_cast<std::size_t>(
                                  target)] +
                                  j});
          break;
        }
      }
    }
  }

  // Prime each cell's Poisson process. The first draw of the arrival
  // stream is the first interarrival gap, matching the per-tick order
  // (gap first, then the request attributes).
  const double rate = config_.system.arrival_rate_per_cell;
  if (rate > 0.0) {
    for (geom::CellId c = first; c < end; ++c) {
      const auto li = static_cast<std::size_t>(c - first);
      PendingEvent tick;
      tick.time = arrival_rng_[li].exponential(1.0 / rate);
      tick.kind = EventKind::kArrivalTick;
      tick.cell = c;
      calendar_.push(tick);
    }
  }
}

// ---- slot protocol ----------------------------------------------------------

void Shard::drain_and_publish(sim::Time slot_start) {
  for (std::size_t s = 0; s < shared_.outbox.size(); ++s) {
    auto& box = shared_.outbox[s][static_cast<std::size_t>(index_)];
    for (const PendingEvent& e : box) calendar_.push(e);
    box.clear();
  }
  for (geom::CellId c = core_.first(); c < core_.end(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const core::BaseStation& station = core_.station(c);
    shared_.frozen_used[ci] = core_.cell(c).used();
    shared_.frozen_t_est[ci] = station.window().t_est();
    shared_.frozen_max_soj[ci] = station.estimator().max_sojourn(slot_start);
  }
}

void Shard::compute_contributions(sim::Time slot_start) {
  const geom::CellId first = core_.first();
  for (geom::CellId i = first; i < core_.end(); ++i) {
    for (const OutSlot& os : out_slots_[static_cast<std::size_t>(i - first)]) {
      const geom::CellId c = os.target;
      if (!core_.delivered(c, i, slot_start)) {
        // The target could not consult us this slot; it substitutes the
        // degraded floor (in finalize_reservations, same pure verdict).
        core_.distrust(i, c);
        shared_.contrib[os.slot] = 0.0;
        continue;
      }
      shared_.contrib[os.slot] = core_.accumulate(
          i, c, slot_start, shared_.frozen_t_est[static_cast<std::size_t>(c)],
          0.0);
    }
  }
}

void Shard::finalize_reservations(sim::Time slot_start) {
  for (geom::CellId c = core_.first(); c < core_.end(); ++c) {
    const auto& neighbors = shared_.grid->neighbors(c);
    const std::size_t off = shared_.contrib_offset[static_cast<std::size_t>(c)];
    double br = 0.0;
    for (std::size_t j = 0; j < neighbors.size(); ++j) {
      br = core_.delivered(c, neighbors[j], slot_start)
               ? br + shared_.contrib[off + j]
               : core_.substitute_floor(br);
    }
    core_.station(c).set_current_reservation(br);
    shared_.frozen_br[static_cast<std::size_t>(c)] = br;
    core_.metrics(c).br_mean.update(slot_start, br);
    if (telemetry_.enabled()) {
      telemetry::bump(tel_.br_recomputes);
      tel_.br_value->add(br);
    }
  }
}

void Shard::process_events(sim::Time slot_end) {
  while (!calendar_.empty() && calendar_.top().time < slot_end) {
    const PendingEvent e = calendar_.pop();
    now_ = e.time;
    switch (e.kind) {
      case EventKind::kArrivalTick:
        handle_arrival_tick(e);
        break;
      case EventKind::kDepart:
        handle_depart(e);
        break;
      case EventKind::kArrive:
        handle_arrive(e);
        break;
      case EventKind::kExpiry:
        handle_expiry(e);
        break;
    }
    ++events_;
  }
  now_ = slot_end;
}

void Shard::audit(sim::Time t) const {
  core_.audit_cells();  // I1-I3, I6
  for (geom::CellId c = core_.first(); c < core_.end(); ++c) {
    for (const auto& entry : core_.cell(c).connections()) {
      // Compare against bandwidth_of(), not the raw constants: under the
      // metamorphic BU-rescaling transform (DESIGN.md §14, M4) every
      // catalogue bandwidth carries the active scale factor.
      PABR_CHECK(
          entry.bandwidth ==
                  traffic::bandwidth_of(traffic::ServiceClass::kVoice) ||
              entry.bandwidth ==
                  traffic::bandwidth_of(traffic::ServiceClass::kVideo),
          "non-catalogue bandwidth attached");
      PABR_CHECK(entry.view.reserve_bandwidth == entry.bandwidth,
                 "reserve bandwidth diverged from attachment");
      PABR_CHECK(entry.view.entered_cell_at <= t,
                 "connection entered its cell in the future");
      PABR_CHECK(entry.view.prev_cell == c ||
                     shared_.grid->adjacent(entry.view.prev_cell, c),
                 "previous cell not adjacent");
    }
    // I2: control-plane state is finite and within its rails; the frozen
    // mirror matches the live value at every barrier.
    const core::BaseStation& station = core_.station(c);
    const double br = station.current_reservation();
    PABR_CHECK(std::isfinite(br) && br >= 0.0, "B_r not finite or negative");
    PABR_CHECK(br == shared_.frozen_br[static_cast<std::size_t>(c)],
               "frozen B_r mirror diverged from the base station");
    const double t_est = station.window().t_est();
    PABR_CHECK(std::isfinite(t_est) && t_est > 0.0, "T_est not positive");
  }
}

// ---- AdmissionContext -------------------------------------------------------

double Shard::capacity(geom::CellId cell) const {
  (void)cell;
  return config_.system.capacity_bu;  // uniform FCA capacity
}

double Shard::used_bandwidth(geom::CellId cell) const {
  // Frozen-neighbour semantics: the admission test sees the requesting
  // cell live and every other cell as of the slot boundary, so the
  // decision cannot depend on which shard the neighbours landed in.
  if (cell == admission_self_) return core_.cell(cell).used();
  return shared_.frozen_used[static_cast<std::size_t>(cell)];
}

const std::vector<geom::CellId>& Shard::adjacent(geom::CellId cell) const {
  return shared_.grid->neighbors(cell);
}

double Shard::recompute_reservation(geom::CellId cell) {
  // Serves the slot-frozen Eq. (6) value; the actual recomputation ran
  // at the barrier. Signalling is still billed per admission-time call,
  // preserving the paper's N_calc semantics (AC1 = 1, AC2 = |A|+1).
  backhaul::SignalingAccountant& accountant = core_.accountant();
  if (core_.faults_on()) {
    accountant.count_br_calculation();
    for (const geom::CellId i : shared_.grid->neighbors(cell)) {
      accountant.exchange(cell, i, now_, *core_.fault_injector(),
                          backhaul::MessageType::kBandwidthQuery);
    }
  } else {
    accountant.record_br_calculation(cell);
  }
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

double Shard::current_reservation(geom::CellId cell) const {
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

double Shard::scratch_reservation(geom::CellId cell) {
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

bool Shard::neighbor_reachable(geom::CellId cell, geom::CellId neighbor) {
  return core_.neighbor_reachable(cell, neighbor, now_);
}

// ---- event handlers ---------------------------------------------------------

void Shard::handle_arrival_tick(const PendingEvent& e) {
  const geom::CellId c = e.cell;
  const auto li = local(c);
  sim::Rng& rng = arrival_rng_[li];
  // Next tick first, then the request attributes — one fixed draw order.
  PendingEvent next;
  next.time =
      e.time + rng.exponential(1.0 / config_.system.arrival_rate_per_cell);
  next.kind = EventKind::kArrivalTick;
  next.cell = c;
  calendar_.push(next);

  const auto service = rng.bernoulli(config_.system.voice_ratio)
                           ? traffic::ServiceClass::kVoice
                           : traffic::ServiceClass::kVideo;
  const double speed = rng.uniform(config_.system.speed_min_kmh,
                                   config_.system.speed_max_kmh);
  const double lifetime =
      rng.exponential(config_.system.mean_lifetime_s);
  handle_arrival(c, service, speed, lifetime);
}

void Shard::handle_arrival(geom::CellId cell, traffic::ServiceClass service,
                           double speed_kmh, sim::Duration lifetime_s) {
  const traffic::Bandwidth bw = traffic::bandwidth_of(service);
  const auto li = local(cell);
  const traffic::ConnectionId id =
      (static_cast<traffic::ConnectionId>(cell) + 1) << 40 | ordinal_[li];
  admission_self_ = cell;
  const bool admitted = core_.admit_call(*this, cell, bw, id, now_);
  admission_self_ = geom::kNoCell;
  if (!admitted) return;

  ++ordinal_[li];
  MobileSnapshot m;
  m.id = id;
  m.service = service;
  m.speed_kmh = speed_kmh;
  m.prev = cell;  // started here (the paper's prev = 0)
  m.entered_at = now_;
  m.expires_at = now_ + lifetime_s;

  traffic::ReservationView view;
  view.reserve_bandwidth = bw;
  view.prev_cell = m.prev;
  view.entered_cell_at = m.entered_at;
  core_.cell(cell).attach(m.id, bw, view);
  record_bu(cell);
  plan_next_leg(m, cell, now_);
}

void Shard::plan_next_leg(MobileSnapshot m, geom::CellId cell, sim::Time t) {
  sim::Rng& rng = motion_rng_[local(cell)];
  // Both the sojourn and the destination are drawn at cell ENTRY (the
  // serial loop draws the destination at crossing time): the departure
  // is then fully announced one conservative lookahead ahead of time.
  const sim::Duration stay = shared_.motion->sojourn(m.speed_kmh, rng);
  const geom::CellId to = shared_.motion->next_cell(m.prev, cell, rng);
  const sim::Time crossing_at = t + stay;

  if (m.expires_at <= crossing_at) {
    PendingEvent expiry;
    expiry.time = m.expires_at;
    expiry.kind = EventKind::kExpiry;
    expiry.cell = cell;
    expiry.id = m.id;
    expiry.mobile = m;
    calendar_.push(expiry);
    return;
  }

  PendingEvent depart;
  depart.time = crossing_at;
  depart.kind = EventKind::kDepart;
  depart.cell = cell;
  depart.id = m.id;
  depart.mobile = m;
  depart.to = to;
  calendar_.push(depart);

  PendingEvent arrive;
  arrive.time = crossing_at;
  arrive.kind = EventKind::kArrive;
  arrive.cell = to;
  arrive.id = m.id;
  arrive.mobile = m;
  arrive.mobile.prev = cell;
  arrive.mobile.entered_at = crossing_at;
  route(arrive);
}

void Shard::route(PendingEvent e) {
  if (core_.owns(e.cell)) {
    calendar_.push(e);
    return;
  }
  const int dest = shared_.partition->owner(e.cell);
  shared_.outbox[static_cast<std::size_t>(index_)]
                [static_cast<std::size_t>(dest)]
                    .push_back(e);
}

void Shard::handle_depart(const PendingEvent& e) {
  core_.station(e.cell).estimator().record(hoef::Quadruplet{
      e.time, e.mobile.prev, e.to, e.time - e.mobile.entered_at});
  if (telemetry_.enabled()) {
    tel_.handoff_sojourn->add(e.time - e.mobile.entered_at);
  }
  core_.cell(e.cell).detach(e.id);
  record_bu(e.cell);
}

void Shard::handle_arrive(const PendingEvent& e) {
  const geom::CellId c = e.cell;
  const traffic::Bandwidth bw = e.mobile.bandwidth();
  // The T_soj,max bound comes from the slot-frozen estimator snapshots —
  // live neighbour estimators may belong to other shards mid-slot.
  if (core_.hand_in(c, bw, e.id, e.time, frozen_t_soj_max(c))) {
    return;  // dropped: the mobile dies with its only pending event
  }

  traffic::ReservationView view;
  view.reserve_bandwidth = bw;
  view.prev_cell = e.mobile.prev;
  view.entered_cell_at = e.time;
  core_.cell(c).attach(e.id, bw, view);
  record_bu(c);
  plan_next_leg(e.mobile, c, e.time);
}

void Shard::handle_expiry(const PendingEvent& e) {
  if (telemetry_.enabled()) telemetry::bump(tel_.expiries);
  core_.cell(e.cell).detach(e.id);
  record_bu(e.cell);
}

// ---- helpers ----------------------------------------------------------------

void Shard::record_bu(geom::CellId cell) {
  core_.metrics(cell).bu_mean.update(now_, core_.cell(cell).used());
}

sim::Duration Shard::frozen_t_soj_max(geom::CellId cell) const {
  sim::Duration m = 0.0;
  for (const geom::CellId i : shared_.grid->neighbors(cell)) {
    m = std::max(m, shared_.frozen_max_soj[static_cast<std::size_t>(i)]);
  }
  return m;
}

// ---- snapshot hooks ---------------------------------------------------------

template <class Ar>
void Shard::io_cell_state(Ar& ar, geom::CellId cell) {
  const auto li = local(cell);
  core_.io_cell(ar, cell);
  snapshot::io(ar, arrival_rng_[li]);
  snapshot::io(ar, motion_rng_[li]);
  ar.u64(ordinal_[li]);
}

template void Shard::io_cell_state(snapshot::Encoder&, geom::CellId);
template void Shard::io_cell_state(snapshot::Decoder&, geom::CellId);

std::size_t Shard::active_connections() const {
  std::size_t n = 0;
  for (const auto& cell : core_.cells()) {
    n += static_cast<std::size_t>(cell.connection_count());
  }
  return n;
}

}  // namespace pabr::sim::sharded
