#include "core/cell_core.h"

#include <algorithm>
#include <chrono>

#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

CellCore::CellCore(const CellCoreConfig& config)
    : first_(config.first),
      end_(config.end),
      topology_(*config.topology),
      incremental_(config.incremental_reservation),
      degraded_floor_bu_(config.fault.degraded_floor_bu),
      interconnect_(config.interconnect),
      engine_(config.route_next),
      accountant_(*config.topology, config.interconnect),
      policy_(admission::make_policy(config.policy, config.static_g,
                                     config.ns)) {
  PABR_CHECK(config.capacity_bu > 0.0, "non-positive capacity");
  PABR_CHECK(first_ >= 0 && first_ <= end_, "bad cell range");

  const auto span = static_cast<std::size_t>(end_ - first_);
  cells_.reserve(span);
  stations_.reserve(span);
  metrics_.resize(span);
  for (geom::CellId c = first_; c < end_; ++c) {
    cells_.emplace_back(c, config.capacity_bu, config.soft_capacity_margin);
    stations_.emplace_back(c, config.hoef, config.window);
    auto& m = metrics_[at(c)];
    m.br_mean.update(config.time_origin, 0.0);
    m.bu_mean.update(config.time_origin, 0.0);
  }

  if (config.fault.enabled) {
    fault_ = std::make_unique<fault::FaultInjector>(config.fault);
  }

  telemetry_.configure(config.telemetry);
  if (telemetry_.enabled()) {
    tel_ = telemetry::make_sim_counters(telemetry_.registry(),
                                        config.capacity_bu);
    engine_.bind_telemetry(tel_.terms_recomputed, tel_.terms_reused);
    accountant_.bind_telemetry(tel_.br_calculations);
    policy_->bind_telemetry(telemetry_.registry());
    for (auto& station : stations_) {
      station.estimator().bind_telemetry(tel_.quads_recorded,
                                         tel_.quads_evicted);
    }
    if (faults_on()) {
      // Registered only under fault injection so fault-free snapshots
      // keep their exact historical key set.
      fault_tel_ = telemetry::make_fault_counters(telemetry_.registry());
      accountant_.bind_fault_telemetry(fault_tel_.retries,
                                       fault_tel_.timeouts);
    }
  }
}

// ---- Eq. (5)/(6) -----------------------------------------------------------

double CellCore::contribution(geom::CellId source, geom::CellId target,
                              sim::Time t, sim::Duration t_est,
                              double running) const {
  const std::size_t s = at(source);
  const auto& estimator = stations_[s].estimator();
  const auto& route_next = engine_.route_next();
  // Under adaptive QoS, "bandwidth reservation is made on the basis of the
  // minimum QoS of each connection" (§1) — reserve_bandwidth carries the
  // minimum-QoS value in that mode.
  for (const traffic::ConnectionEntry& e : cells_[s].connections()) {
    const sim::Duration extant = t - e.view.entered_cell_at;
    double ph;
    if (e.view.route_known) {
      // §7 ITS/GPS extension: the next cell is known, so the estimation
      // function only estimates the hand-off (sojourn) time.
      if (route_next == nullptr ||
          route_next(source, e.view.direction) != target) {
        continue;
      }
      ph = estimator.any_handoff_probability(t, e.view.prev_cell, extant,
                                             t_est);
    } else {
      ph = estimator.handoff_probability(t, e.view.prev_cell, target, extant,
                                         t_est);
    }
    running += static_cast<double>(e.view.reserve_bandwidth) * ph;
  }
  return running;
}

void CellCore::check_resync(geom::CellId source, geom::CellId target,
                            sim::Time t, sim::Duration t_est, double before,
                            double sum) const {
  // Post-heal re-sync (invariant I9): the rebuilt pair cache must
  // reproduce the from-scratch Eq. (5) contribution bit-for-bit.
  PABR_CHECK(sum == contribution(source, target, t, t_est, before),
             "post-heal pair re-sync diverged from scratch rescan");
  telemetry::bump(fault_tel_.pair_resyncs);
}

double CellCore::recompute(geom::CellId cell, sim::Time t) {
  // Eq. (4) is evaluated with the *target* cell's estimation window
  // (T_est of "cell next", §4.1).
  BaseStation& station = stations_[index(cell)];
  const sim::Duration t_est = station.window().t_est();

  double br = 0.0;
  if (faults_on()) {
    // Degraded mode: each neighbour is consulted through the faulty
    // backhaul. Messages are billed per attempt by exchange(); the B_r
    // computation itself still counts once toward N_calc.
    accountant_.count_br_calculation();
    for (geom::CellId i : topology_.neighbors(cell)) {
      if (!accountant_.exchange(cell, i, t, *fault_,
                                backhaul::MessageType::kBandwidthQuery)) {
        // The neighbour's hand-in estimate is unavailable: substitute the
        // static floor and distrust the pair's cached terms.
        br = substitute_floor(br);
        distrust(i, cell);
        continue;
      }
      br = accumulate(i, cell, t, t_est, br);
    }
  } else {
    accountant_.record_br_calculation(cell);
    if (incremental_) {
      for (geom::CellId i : topology_.neighbors(cell)) {
        const std::size_t s = at(i);
        br = engine_.accumulate(i, cell, cells_[s].connections(),
                                stations_[s].estimator(), t, t_est, br);
      }
    } else {
      br = scratch_reservation(cell, t);
    }
  }

  station.set_current_reservation(br);
  if (telemetry_.enabled()) {
    telemetry::bump(tel_.br_recomputes);
    tel_.br_value->add(br);
    telemetry_.emit(t, telemetry::EventKind::kBrRecompute, cell, 0, br);
  }
  metrics_[at(cell)].br_mean.update(t, br);
  return br;
}

double CellCore::scratch_reservation(geom::CellId cell, sim::Time t) {
  const sim::Duration t_est = stations_[index(cell)].window().t_est();
  double br = 0.0;
  // Mirrors the degraded production path exactly — same reachability
  // verdicts, same floor — without any message or N_calc accounting.
  for (geom::CellId i : topology_.neighbors(cell)) {
    br = delivered(cell, i, t) ? contribution(i, cell, t, t_est, br)
                               : br + degraded_floor_bu_;
  }
  return br;
}

bool CellCore::neighbor_reachable(geom::CellId cell, geom::CellId neighbor,
                                  sim::Time t) {
  if (!faults_on()) return true;
  const bool ok = accountant_.exchange(
      cell, neighbor, t, *fault_, backhaul::MessageType::kReservationCheck);
  if (!ok) telemetry::bump(fault_tel_.ac_local_fallbacks);
  return ok;
}

sim::Duration CellCore::t_soj_max(geom::CellId cell, sim::Time t) const {
  // T_soj,max: "the maximum T_soj derived from the hand-off estimation
  // functions in adjacent cells" (§4.2).
  sim::Duration m = 0.0;
  for (geom::CellId i : topology_.neighbors(cell)) {
    m = std::max(m, stations_[at(i)].estimator().max_sojourn(t));
  }
  return m;
}

bool CellCore::admit(admission::AdmissionContext& context, geom::CellId cell,
                     traffic::Bandwidth bw) {
  backhaul::AdmissionScope scope(accountant_);
  if (!telemetry_.time_admissions()) return policy_->admit(context, cell, bw);
  // Wall-clock sampling of the admission test. steady_clock never touches
  // simulation state, so determinism is unaffected.
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = policy_->admit(context, cell, bw);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  tel_.admission_ns->add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  return ok;
}

bool CellCore::admit_call(admission::AdmissionContext& context,
                          geom::CellId cell, traffic::Bandwidth bw,
                          traffic::ConnectionId id, sim::Time t) {
  const std::size_t i = index(cell);
  bool admitted = false;
  if (station_up(cell, t)) {
    admitted = admit(context, cell, bw) && cells_[i].can_fit(bw);
  } else {
    telemetry::bump(fault_tel_.station_blocks);
  }
  metrics_[i].pcb.trial(!admitted);
  if (telemetry_.enabled()) {
    telemetry::bump(admitted ? tel_.admitted : tel_.blocked);
    telemetry_.emit(t,
                    admitted ? telemetry::EventKind::kAdmit
                             : telemetry::EventKind::kBlock,
                    cell, id, static_cast<double>(bw));
  }
  return admitted;
}

bool CellCore::hand_in(geom::CellId cell, traffic::Bandwidth bw,
                       traffic::ConnectionId id, sim::Time t,
                       sim::Duration t_soj_max) {
  const std::size_t i = index(cell);
  bool dropped = !cells_[i].can_fit(bw);
  if (!dropped && !station_up(cell, t)) {
    // Destination BS down: the hand-off has no one to signal to.
    dropped = true;
    telemetry::bump(fault_tel_.station_drops);
  }
  reservation::TestWindowController& window = stations_[i].window();
  const sim::Duration t_est_before = window.t_est();
  window.on_handoff(dropped, t_soj_max);
  metrics_[i].phd.trial(dropped);
  if (telemetry_.enabled()) {
    if (window.t_est() != t_est_before) {
      telemetry_.emit(t, telemetry::EventKind::kTEstStep, cell, 0,
                      window.t_est());
    }
    telemetry::bump(dropped ? tel_.handoff_dropped : tel_.handoff_completed);
    telemetry_.emit(t,
                    dropped ? telemetry::EventKind::kHandoffDrop
                            : telemetry::EventKind::kHandoff,
                    cell, id, static_cast<double>(bw));
  }
  return dropped;
}

// ---- Metrics ----------------------------------------------------------------

void CellCore::reset_metrics(sim::Time t) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    auto& m = metrics_[i];
    m.pcb.reset();
    m.phd.reset();
    m.br_mean.reset(t);
    m.br_mean.update(t, stations_[i].current_reservation());
    m.bu_mean.reset(t);
    m.bu_mean.update(t, cells_[i].used());
  }
  accountant_.reset();
  if (interconnect_ != nullptr) interconnect_->reset();
  // Telemetry follows the same warm-up semantics: accumulators restart,
  // learned simulation state persists untouched.
  if (telemetry_.enabled()) {
    telemetry_.registry().reset();
    telemetry_.buffer().clear();
  }
}

CellStatus CellCore::cell_status(geom::CellId cell, sim::Time t) const {
  const std::size_t i = index(cell);
  const CellMetrics& m = metrics_[i];
  CellStatus s;
  s.cell = cell + 1;  // the paper's 1-based numbering
  s.pcb = m.pcb.value();
  s.phd = m.phd.value();
  s.t_est = stations_[i].window().t_est();
  s.br = stations_[i].current_reservation();
  s.bu = cells_[i].used();
  s.br_avg = m.br_mean.mean(t);
  s.bu_avg = m.bu_mean.mean(t);
  s.requests = m.pcb.trials();
  s.blocks = m.pcb.hits();
  s.handoffs = m.phd.trials();
  s.drops = m.phd.hits();
  return s;
}

SystemStatus CellCore::system_status(sim::Time t) const {
  SystemStatus s;
  double br_sum = 0.0;
  double bu_sum = 0.0;
  for (const CellMetrics& m : metrics_) {
    s.requests += m.pcb.trials();
    s.blocks += m.pcb.hits();
    s.handoffs += m.phd.trials();
    s.drops += m.phd.hits();
    br_sum += m.br_mean.mean(t);
    bu_sum += m.bu_mean.mean(t);
  }
  const auto n = static_cast<double>(metrics_.size());
  s.pcb = s.requests == 0 ? 0.0
                          : static_cast<double>(s.blocks) /
                                static_cast<double>(s.requests);
  s.phd = s.handoffs == 0 ? 0.0
                          : static_cast<double>(s.drops) /
                                static_cast<double>(s.handoffs);
  s.n_calc = accountant_.n_calc();
  s.br_avg = br_sum / n;
  s.bu_avg = bu_sum / n;
  s.br_calculations = accountant_.total_br_calculations();
  if (interconnect_ != nullptr) {
    s.backhaul_messages = interconnect_->total_messages();
  }
  return s;
}

telemetry::MetricsSnapshot CellCore::telemetry_snapshot(
    std::size_t active_connections) {
  if (telemetry_.enabled()) {
    auto& reg = telemetry_.registry();
    reg.gauge("signaling.n_calc")->set(accountant_.n_calc());
    if (interconnect_ != nullptr) {
      reg.gauge("signaling.messages")
          ->set(static_cast<double>(interconnect_->total_messages()));
    }
    reg.gauge("connections.active")
        ->set(static_cast<double>(active_connections));
    reg.gauge("trace.emitted")
        ->set(static_cast<double>(telemetry_.buffer().emitted()));
    reg.gauge("trace.rotated_out")
        ->set(static_cast<double>(telemetry_.buffer().rotated_out()));
    reg.gauge("trace.sampled_out")
        ->set(static_cast<double>(telemetry_.buffer().sampled_out()));
  }
  return telemetry_.snapshot();
}

// ---- Snapshot ---------------------------------------------------------------

void CellCore::save_cells(snapshot::Writer& w) const {
  {
    auto& e = w.begin_section("cells");
    for (const Cell& cell : cells_) snapshot::put_cell(e, cell);
  }
  {
    auto& e = w.begin_section("stations");
    for (const BaseStation& bs : stations_) snapshot::put_station(e, bs);
  }
  {
    auto& e = w.begin_section("metrics");
    for (const CellMetrics& m : metrics_) snapshot::put_cell_metrics(e, m);
  }
}

void CellCore::restore_cells(const snapshot::Reader& r) {
  {
    auto d = r.open("cells");
    for (Cell& cell : cells_) snapshot::restore_cell(d, cell);
    d.finish();
  }
  {
    auto d = r.open("stations");
    for (BaseStation& bs : stations_) snapshot::restore_station(d, bs);
    d.finish();
  }
  {
    auto d = r.open("metrics");
    for (CellMetrics& m : metrics_) snapshot::restore_cell_metrics(d, m);
    d.finish();
  }
}

void CellCore::save_accountant(snapshot::Writer& w) const {
  snapshot::put_accountant(w.begin_section("accountant"), accountant_);
}

void CellCore::restore_accountant(const snapshot::Reader& r) {
  auto d = r.open("accountant");
  snapshot::restore_accountant(d, accountant_);
  d.finish();
}

void CellCore::save_tail(snapshot::Writer& w) const {
  snapshot::put_engine(w.begin_section("engine"), engine_);
  {
    auto& e = w.begin_section("telemetry");
    e.b(telemetry_.enabled());
    if (telemetry_.enabled()) {
      // Raw registry snapshot: telemetry_snapshot() would sync gauges and
      // mutate state, which save() must never do.
      snapshot::put_metrics_snapshot(e, telemetry_.registry().snapshot());
      snapshot::put_trace_buffer(e, telemetry_.buffer());
    }
  }
  {
    auto& e = w.begin_section("fault");
    e.b(fault_ != nullptr);
    if (fault_ != nullptr) fault_->save(e);
  }
}

void CellCore::restore_tail(const snapshot::Reader& r) {
  {
    auto d = r.open("engine");
    snapshot::restore_engine(d, engine_);
    d.finish();
  }
  {
    auto d = r.open("telemetry");
    const bool enabled = d.b();
    PABR_CHECK(enabled == telemetry_.enabled(),
               "snapshot/build disagree on telemetry");
    if (enabled) {
      telemetry_.registry().restore(snapshot::get_metrics_snapshot(d));
      snapshot::restore_trace_buffer(d, telemetry_.buffer());
    }
    d.finish();
  }
  {
    auto d = r.open("fault");
    const bool present = d.b();
    PABR_CHECK(present == (fault_ != nullptr),
               "snapshot/build disagree on fault injection");
    if (present) fault_->load(d);
    d.finish();
  }
}

void CellCore::save_cell(snapshot::Encoder& e, geom::CellId cell) const {
  const std::size_t i = index(cell);
  snapshot::put_cell(e, cells_[i]);
  snapshot::put_station(e, stations_[i]);
  snapshot::put_cell_metrics(e, metrics_[i]);
}

void CellCore::restore_cell(snapshot::Decoder& d, geom::CellId cell) {
  const std::size_t i = index(cell);
  snapshot::restore_cell(d, cells_[i]);
  snapshot::restore_station(d, stations_[i]);
  snapshot::restore_cell_metrics(d, metrics_[i]);
}

}  // namespace pabr::core
