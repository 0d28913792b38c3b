#include "core/hex_system.h"

#include "util/check.h"

namespace pabr::core {

void HexSystemConfig::set_offered_load(double load) {
  arrival_rate_per_cell =
      traffic::arrival_rate_for_load(load, voice_ratio, mean_lifetime_s);
}

CellCoreConfig HexSystemConfig::core_config(const geom::HexTopology& grid,
                                            geom::CellId first,
                                            geom::CellId end) const {
  CellCoreConfig c;
  c.first = first;
  c.end = end;
  c.topology = &grid;
  c.capacity_bu = capacity_bu;
  c.hoef = hoef;
  c.window.phd_target = phd_target;
  c.window.t_start = t_start;
  c.policy = policy;
  c.static_g = static_g;
  c.ns = &ns;
  c.incremental_reservation = incremental_reservation;
  c.telemetry = telemetry;
  c.fault = fault;
  return c;
}

HexCellularSystem::HexCellularSystem(HexSystemConfig config)
    : config_(std::move(config)),
      rng_factory_(config_.seed),
      grid_(config_.rows, config_.cols, config_.wrap),
      motion_(grid_, config_.motion),
      arrival_rng_(rng_factory_.make("hex-arrivals")),
      movement_rng_(rng_factory_.make("hex-movement")),
      core_(config_.core_config(grid_, 0, grid_.num_cells())) {
  PABR_CHECK(config_.arrival_rate_per_cell >= 0.0, "negative arrival rate");
  PABR_CHECK(
      config_.voice_ratio >= 0.0 && config_.voice_ratio <= 1.0,
      "voice ratio out of [0,1]");
  PABR_CHECK(config_.speed_min_kmh > 0.0 &&
                 config_.speed_max_kmh >= config_.speed_min_kmh,
             "bad speed range");
  schedule_next_arrival();
}

void HexCellularSystem::run_for(sim::Duration duration) {
  PABR_CHECK(duration >= 0.0, "negative run duration");
  simulator_.run_until(simulator_.now() + duration);
}

void HexCellularSystem::run_until(sim::Time t) {
  PABR_CHECK(t >= simulator_.now(), "run_until into the past");
  simulator_.run_until(t);
}

void HexCellularSystem::reset_metrics() {
  core_.reset_metrics(simulator_.now());
}

// ---- AdmissionContext -------------------------------------------------------

double HexCellularSystem::capacity(geom::CellId cell) const {
  return core_.cell(cell).capacity();
}

double HexCellularSystem::used_bandwidth(geom::CellId cell) const {
  return core_.cell(cell).used();
}

const std::vector<geom::CellId>& HexCellularSystem::adjacent(
    geom::CellId cell) const {
  return grid_.neighbors(cell);
}

double HexCellularSystem::recompute_reservation(geom::CellId cell) {
  return core_.recompute(cell, simulator_.now());
}

double HexCellularSystem::scratch_reservation(geom::CellId cell) {
  return core_.scratch_reservation(cell, simulator_.now());
}

bool HexCellularSystem::neighbor_reachable(geom::CellId cell,
                                           geom::CellId neighbor) {
  return core_.neighbor_reachable(cell, neighbor, simulator_.now());
}

traffic::ReservationView HexCellularSystem::reservation_view(
    const HexMobile& m) const {
  traffic::ReservationView v;
  v.reserve_bandwidth = m.bandwidth();
  v.prev_cell = m.prev;
  v.entered_cell_at = m.entered_at;
  return v;
}

double HexCellularSystem::current_reservation(geom::CellId cell) const {
  return core_.station(cell).current_reservation();
}

// ---- Workload ----------------------------------------------------------------

void HexCellularSystem::schedule_next_arrival() {
  const double system_rate = config_.arrival_rate_per_cell *
                             static_cast<double>(grid_.num_cells());
  if (system_rate <= 0.0) return;
  schedule_arrival_at(simulator_.now() +
                      arrival_rng_.exponential(1.0 / system_rate));
}

void HexCellularSystem::schedule_arrival_at(sim::Time t) {
  next_arrival_ = simulator_.schedule_at(t, [this] {
    schedule_next_arrival();
    const geom::CellId cell =
        arrival_rng_.uniform_int(0, grid_.num_cells() - 1);
    const auto service = arrival_rng_.bernoulli(config_.voice_ratio)
                             ? traffic::ServiceClass::kVoice
                             : traffic::ServiceClass::kVideo;
    const double speed =
        arrival_rng_.uniform(config_.speed_min_kmh, config_.speed_max_kmh);
    const double lifetime = arrival_rng_.exponential(config_.mean_lifetime_s);
    handle_request(cell, service, speed, lifetime);
    maybe_audit();
  });
}

bool HexCellularSystem::submit_request(geom::CellId cell,
                                       traffic::ServiceClass service,
                                       double speed_kmh,
                                       sim::Duration lifetime_s) {
  core_.index(cell);  // range check
  const bool admitted = handle_request(cell, service, speed_kmh, lifetime_s);
  maybe_audit();
  return admitted;
}

bool HexCellularSystem::handle_request(geom::CellId cell,
                                       traffic::ServiceClass service,
                                       double speed_kmh,
                                       sim::Duration lifetime_s) {
  const traffic::Bandwidth bw = traffic::bandwidth_of(service);
  if (!core_.admit_call(*this, cell, bw, next_id_, simulator_.now())) {
    return false;
  }

  const traffic::ConnectionId id = next_id_++;
  HexMobile m;
  m.id = id;
  m.service = service;
  m.cell = cell;
  m.prev = cell;  // started here (the paper's prev = 0)
  m.entered_at = simulator_.now();
  m.speed_kmh = speed_kmh;

  core_.cell(cell).attach(id, bw, reservation_view(m));
  record_bu(cell);

  const auto [it, inserted] = mobiles_.emplace(id, std::move(m));
  PABR_CHECK(inserted, "duplicate connection id");
  it->second.expiry = simulator_.schedule_in(lifetime_s, [this, id] {
    handle_expiry(id);
    maybe_audit();
  });
  schedule_crossing(it->second);
  return true;
}

// ---- Motion / hand-offs --------------------------------------------------------

void HexCellularSystem::schedule_crossing(HexMobile& m) {
  const sim::Duration stay = motion_.sojourn(m.speed_kmh, movement_rng_);
  m.crossing = simulator_.schedule_in(stay, [this, id = m.id] {
    handle_crossing(id);
    maybe_audit();
  });
}

void HexCellularSystem::handle_crossing(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "crossing for unknown mobile");
  HexMobile& m = it->second;
  const sim::Time t = simulator_.now();

  const geom::CellId from = m.cell;
  const geom::CellId to = motion_.next_cell(m.prev, m.cell, movement_rng_);
  PABR_CHECK(grid_.adjacent(from, to), "hex motion left adjacency");

  core_.station(from).estimator().record(
      hoef::Quadruplet{t, m.prev, to, t - m.entered_at});
  if (telemetry_.enabled()) tel_.handoff_sojourn->add(t - m.entered_at);

  const bool dropped =
      core_.hand_in(to, m.bandwidth(), id, t, core_.t_soj_max(to, t));
  core_.cell(from).detach(id);
  record_bu(from);
  if (dropped) {
    simulator_.cancel(m.expiry);
    mobiles_.erase(it);
    return;
  }
  m.prev = from;
  m.cell = to;
  m.entered_at = t;
  core_.cell(to).attach(id, m.bandwidth(), reservation_view(m));
  record_bu(to);
  schedule_crossing(m);
}

void HexCellularSystem::handle_expiry(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "expiry for unknown mobile");
  if (telemetry_.enabled()) {
    telemetry::bump(tel_.expiries);
    telemetry_.emit(simulator_.now(), telemetry::EventKind::kExpiry,
                    it->second.cell, id,
                    static_cast<double>(it->second.bandwidth()));
  }
  simulator_.cancel(it->second.crossing);
  core_.cell(it->second.cell).detach(id);
  record_bu(it->second.cell);
  mobiles_.erase(it);
}

void HexCellularSystem::record_bu(geom::CellId cell) {
  core_.metrics(cell).bu_mean.update(simulator_.now(),
                                     core_.cell(cell).used());
}

telemetry::MetricsSnapshot HexCellularSystem::telemetry_snapshot() {
  return core_.telemetry_snapshot(mobiles_.size());
}

}  // namespace pabr::core
