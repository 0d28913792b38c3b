#include "hoef/estimator.h"

#include <algorithm>
#include <cmath>

#include "snapshot/format.h"
#include "util/check.h"

namespace pabr::hoef {
namespace {

bool is_finite_duration(sim::Duration d) { return d < sim::kInfiniteDuration; }

/// Weight of entries with sojourn <= x given a sojourn-sorted array
/// [begin, end) and its prefix-summed weights (parallel array starting at
/// `prefix`).
double prefix_weight_at(const double* begin, const double* end,
                        const double* prefix, double x) {
  const double* it = std::upper_bound(begin, end, x);
  const auto idx = static_cast<std::size_t>(it - begin);
  return idx == 0 ? 0.0 : prefix[idx - 1];
}

/// Smallest sojourn value strictly greater than x (the next step
/// breakpoint of the prefix-weight function), or infinity when none.
double next_breakpoint_after(const double* begin, const double* end,
                             double x) {
  const double* it = std::upper_bound(begin, end, x);
  return it == end ? sim::kInfiniteDuration : *it;
}

}  // namespace

HandoffEstimator::HandoffEstimator(geom::CellId self, EstimatorConfig config)
    : self_(self), config_(std::move(config)) {
  PABR_CHECK(config_.n_quad > 0, "N_quad must be positive");
  PABR_CHECK(config_.n_win_periods >= 0, "negative N_win");
  PABR_CHECK(config_.period > 0.0, "non-positive window period");
  PABR_CHECK(config_.t_int > 0.0, "non-positive T_int");
  PABR_CHECK(!config_.weights.empty(), "no window weights");
  for (std::size_t i = 1; i < config_.weights.size(); ++i) {
    PABR_CHECK(config_.weights[i] <= config_.weights[i - 1],
               "window weights must be non-increasing (paper Eq. 3)");
  }
  PABR_CHECK(config_.weights.front() > 0.0, "w_0 must be positive");
}

double HandoffEstimator::window_weight(int n) const {
  if (n < 0 || n > config_.n_win_periods) return 0.0;
  const auto idx = static_cast<std::size_t>(n);
  if (idx >= config_.weights.size()) return 0.0;
  return config_.weights[idx];
}

void HandoffEstimator::record(const Quadruplet& q) {
  PABR_CHECK(q.event_time >= last_event_time_,
             "quadruplets must arrive in event-time order");
  PABR_CHECK(q.sojourn >= 0.0, "negative sojourn");
  PABR_CHECK(q.next != geom::kNoCell && q.next != self_,
             "quadruplet.next must be an adjacent cell");
  last_event_time_ = q.event_time;

  PrevHistory& h = by_prev_.find_or_insert(q.prev);
  auto& ring = h.by_next.find_or_insert(q.next);
  if (!is_finite_duration(config_.t_int)) {
    // The retention loop below keeps at most N_quad events, so the ring
    // peaks at N_quad + 1 elements; pre-sizing once pins the capacity to
    // the first power of two above that and the ring never grows again.
    ring.reserve(static_cast<std::size_t>(config_.n_quad) + 1);
  }
  ring.push_back(q);
  telemetry::bump(tel_recorded_);

  if (!is_finite_duration(config_.t_int)) {
    // With an infinite window the priority rule is pure recency, so only
    // the newest N_quad events per (prev, next) can ever be selected.
    while (ring.size() > static_cast<std::size_t>(config_.n_quad)) {
      ring.pop_front();
      telemetry::bump(tel_evicted_);
    }
  } else {
    // Out-of-date events (older than every remaining periodic window) can
    // never be selected again; drop them eagerly to bound memory.
    const sim::Time horizon =
        q.event_time - config_.t_int -
        config_.period * static_cast<double>(config_.n_win_periods);
    while (!ring.empty() && ring.front().event_time < horizon) {
      ring.pop_front();
      telemetry::bump(tel_evicted_);
    }
  }
  ++h.revision;
  ++state_version_;
}

void HandoffEstimator::audit() const {
  for (const auto& [prev, hist] : by_prev_) {
    for (const auto& [next, events] : hist.by_next) {
      PABR_CHECK(next != geom::kNoCell && next != self_,
                 "estimator audit: ring keyed by invalid next cell");
      sim::Time last = -sim::kInfiniteDuration;
      for (const Quadruplet& q : events) {
        PABR_CHECK(q.prev == prev,
                   "estimator audit: quadruplet in foreign prev ring");
        PABR_CHECK(q.next == next,
                   "estimator audit: quadruplet in foreign next ring");
        PABR_CHECK(q.sojourn >= 0.0, "estimator audit: negative sojourn");
        PABR_CHECK(q.event_time >= last,
                   "estimator audit: event times out of order");
        PABR_CHECK(q.event_time <= last_event_time_,
                   "estimator audit: event newer than the last recorded");
        last = q.event_time;
      }
      if (!is_finite_duration(config_.t_int)) {
        PABR_CHECK(events.size() <= static_cast<std::size_t>(config_.n_quad),
                   "estimator audit: ring exceeds N_quad");
      }
    }
  }
}

void HandoffEstimator::select(const util::Ring<Quadruplet>& events,
                              sim::Time t0) const {
  std::vector<Selected>& picked = select_scratch_;
  picked.clear();
  if (events.empty()) return;

  if (!is_finite_duration(config_.t_int)) {
    // Single window (n = 0) covering all of history; the ring is already
    // capped at N_quad newest events in record().
    const double w = window_weight(0);
    picked.reserve(events.size());
    for (const Quadruplet& q : events) {
      if (q.event_time > t0) continue;  // future events are meaningless
      picked.push_back(Selected{q.sojourn, w, 0, t0 - q.event_time});
    }
    return;
  }

  // When 2*T_int > period, consecutive windows overlap and an event can
  // satisfy Eq. (2) for several n; the priority rule assigns it the
  // smallest n only, so windows are scanned in ascending n and indices
  // already claimed by an earlier window are skipped. Because each
  // window's index range shifts monotonically toward older events as n
  // grows, the union of already-claimed ranges that can overlap the
  // current one is just [claimed_lo, end) — a single comparison per
  // event instead of a scan over all earlier windows.
  picked.reserve(static_cast<std::size_t>(config_.n_quad));
  std::ptrdiff_t claimed_lo = static_cast<std::ptrdiff_t>(events.size());
  for (int n = 0; n <= config_.n_win_periods; ++n) {
    const double w = window_weight(n);
    if (w <= 0.0) continue;
    const double shift = config_.period * static_cast<double>(n);
    const sim::Time lo = t0 - config_.t_int - shift;
    const sim::Time hi = t0 + config_.t_int - shift;
    const sim::Time center = t0 - shift;
    auto first = std::lower_bound(
        events.begin(), events.end(), lo,
        [](const Quadruplet& q, sim::Time v) { return q.event_time < v; });
    auto last = std::lower_bound(
        events.begin(), events.end(), hi,
        [](const Quadruplet& q, sim::Time v) { return q.event_time < v; });
    for (auto it = first; it != last; ++it) {
      if (it->event_time > t0) break;  // the [t0, t0+T_int) part is future
      if (it - events.begin() >= claimed_lo) continue;  // earlier window's
      picked.push_back(
          Selected{it->sojourn, w, n, std::fabs(it->event_time - center)});
    }
    claimed_lo = std::min(claimed_lo, first - events.begin());
  }

  // §3.1 priority rule: smaller n first, then closest to the window
  // centre; keep the top N_quad.
  if (picked.size() > static_cast<std::size_t>(config_.n_quad)) {
    std::sort(picked.begin(), picked.end(),
              [](const Selected& a, const Selected& b) {
                if (a.window != b.window) return a.window < b.window;
                return a.center_distance < b.center_distance;
              });
    picked.resize(static_cast<std::size_t>(config_.n_quad));
  }
}

bool HandoffEstimator::snapshot_fresh(const PrevHistory& h,
                                      sim::Time t0) const {
  const Snapshot& s = h.snapshot;
  if (!s.valid || s.revision != h.revision) return false;
  if (!is_finite_duration(config_.t_int)) return true;
  // One-sided: a snapshot is only reusable for queries at or after its
  // build time. fabs() here would also accept snapshots built *after* t0,
  // whose window [built_at, built_at + t_int) can extend past t0 + t_int
  // and leak future events into an earlier query.
  const sim::Duration age = t0 - s.built_at;
  return age >= 0.0 && age <= config_.snapshot_tolerance;
}

void HandoffEstimator::build_snapshot(const PrevHistory& h,
                                      sim::Time t0) const {
  Snapshot& s = h.snapshot;
  s.built_at = t0;
  s.revision = h.revision;
  s.valid = true;
  s.all_sojourn.clear();
  s.all_prefix.clear();
  s.by_next.clear();
  s.values.reset();
  s.raw.reset();
  s.all_total = 0.0;
  s.max_sojourn = 0.0;

  std::vector<std::pair<double, double>>& all = all_scratch_;  // (soj, w)
  all.clear();
  s.by_next.reserve(h.by_next.size());
  for (const auto& [next, events] : h.by_next) {
    select(events, t0);
    std::vector<Selected>& sel = select_scratch_;
    if (sel.empty()) continue;
    std::sort(sel.begin(), sel.end(),
              [](const Selected& a, const Selected& b) {
                return a.sojourn < b.sojourn;
              });
    NextSpan span;
    span.next = next;
    const std::uint32_t soj_mark = s.values.mark();
    for (const Selected& x : sel) {
      s.values.push_back(x.sojourn);
      all.emplace_back(x.sojourn, x.weight);
      s.max_sojourn = std::max(s.max_sojourn, x.sojourn);
    }
    span.sojourns = s.values.span_from(soj_mark);
    const std::uint32_t prefix_mark = s.values.mark();
    double acc = 0.0;
    for (const Selected& x : sel) {
      acc += x.weight;
      s.values.push_back(acc);
    }
    span.prefix = s.values.span_from(prefix_mark);
    const std::uint32_t raw_mark = s.raw.mark();
    for (const Selected& x : sel) s.raw.push_back(x);
    span.raw = s.raw.span_from(raw_mark);
    s.by_next.push_back(span);
  }

  std::sort(all.begin(), all.end());
  double acc = 0.0;
  s.all_sojourn.reserve(all.size());
  s.all_prefix.reserve(all.size());
  for (const auto& [soj, w] : all) {
    s.all_sojourn.push_back(soj);
    acc += w;
    s.all_prefix.push_back(acc);
  }
  s.all_total = acc;
}

const HandoffEstimator::NextSpan* HandoffEstimator::Snapshot::find_next(
    geom::CellId next) const {
  const auto it = std::lower_bound(
      by_next.begin(), by_next.end(), next,
      [](const NextSpan& s, geom::CellId id) { return s.next < id; });
  return (it != by_next.end() && it->next == next) ? &*it : nullptr;
}

const HandoffEstimator::Snapshot* HandoffEstimator::snapshot_for(
    geom::CellId prev, sim::Time t0) const {
  const auto it = by_prev_.find(prev);
  if (it == by_prev_.end()) return nullptr;
  const PrevHistory& h = it->second;
  if (!snapshot_fresh(h, t0)) build_snapshot(h, t0);
  return &h.snapshot;
}

// The Bayes posterior Pr[hand-off within T_est | survived `extant`] =
// numer / denom, hardened at the numeric boundaries. A zero-mass
// denominator — empty window, all-stale (pruned) quadruplets, all-zero
// weights — means "estimated stationary" (paper §4.1) and yields 0, and
// so does any non-finite intermediate: `NaN <= 0` comparisons are false
// and std::clamp passes NaN through, so without the isfinite gates a
// poisoned weight sum would leak NaN/Inf into every B_r term downstream.
// p_h is therefore always a finite value in [0, 1].
static double posterior(double numer, double denom) {
  if (!(denom > 0.0) || !std::isfinite(denom)) return 0.0;
  const double p = numer / denom;
  return std::isfinite(p) ? std::clamp(p, 0.0, 1.0) : 0.0;
}

/// True when the posterior denominator has usable mass; false is the
/// zero-mass/non-finite case where posterior() pins the probability at 0.
static bool posterior_mass(double denom) {
  return denom > 0.0 && std::isfinite(denom);
}

template <bool kProbe, bool kAnyNext>
ProbeResult HandoffEstimator::lookup(sim::Time t0, geom::CellId prev,
                                     geom::CellId next,
                                     sim::Duration extant_sojourn,
                                     sim::Duration t_est) const {
  PABR_CHECK(extant_sojourn >= 0.0, "negative extant sojourn");
  PABR_CHECK(t_est >= 0.0, "negative T_est");
  ProbeResult r;
  const Snapshot* s = snapshot_for(prev, t0);
  if (s == nullptr) return r;  // stays 0 until a record() bumps the version

  const double* all_b = s->all_sojourn.data();
  const double* all_e = all_b + s->all_sojourn.size();
  const double below_all =
      prefix_weight_at(all_b, all_e, s->all_prefix.data(), extant_sojourn);
  const double denom = s->all_total - below_all;
  if (!posterior_mass(denom)) {
    return r;  // estimated stationary — and stays so: the denominator
               // only shrinks as time passes
  }

  // The numerator's step function: the whole prev's for a hand-off
  // anywhere (its weight below the extant sojourn is below_all), else
  // `next`'s.
  const double* soj_b = all_b;
  const double* soj_e = all_e;
  const double* pre_b = s->all_prefix.data();
  double below = below_all;
  if constexpr (!kAnyNext) {
    const NextSpan* span = s->find_next(next);
    if (span == nullptr) return r;  // no events toward `next` yet
    soj_b = s->values.begin(span->sojourns);
    soj_e = s->values.end(span->sojourns);
    pre_b = s->values.begin(span->prefix);
    below = prefix_weight_at(soj_b, soj_e, pre_b, extant_sojourn);
  }
  const double numer =
      prefix_weight_at(soj_b, soj_e, pre_b, extant_sojourn + t_est) - below;
  r.probability = posterior(numer, denom);

  if constexpr (kProbe) {
    // The value is a pure function of the step-function indices selected
    // above; it can only change when the extant sojourn (or sojourn +
    // T_est) crosses the next sample point of one of the lookups.
    const double d1 =
        next_breakpoint_after(all_b, all_e, extant_sojourn) - extant_sojourn;
    const double d2 =
        kAnyNext ? d1
                 : next_breakpoint_after(soj_b, soj_e, extant_sojourn) -
                       extant_sojourn;
    const double d3 =
        next_breakpoint_after(soj_b, soj_e, extant_sojourn + t_est) -
        (extant_sojourn + t_est);
    const double delta = std::min({d1, d2, d3});
    r.valid_until =
        delta >= sim::kInfiniteDuration ? sim::kInfiniteDuration : t0 + delta;
  }
  return r;
}

double HandoffEstimator::handoff_probability(sim::Time t0, geom::CellId prev,
                                             geom::CellId next,
                                             sim::Duration extant_sojourn,
                                             sim::Duration t_est) const {
  return lookup<false, false>(t0, prev, next, extant_sojourn, t_est)
      .probability;
}

double HandoffEstimator::any_handoff_probability(
    sim::Time t0, geom::CellId prev, sim::Duration extant_sojourn,
    sim::Duration t_est) const {
  return lookup<false, true>(t0, prev, geom::kNoCell, extant_sojourn, t_est)
      .probability;
}

ProbeResult HandoffEstimator::handoff_probability_probe(
    sim::Time t0, geom::CellId prev, geom::CellId next,
    sim::Duration extant_sojourn, sim::Duration t_est) const {
  return lookup<true, false>(t0, prev, next, extant_sojourn, t_est);
}

ProbeResult HandoffEstimator::any_handoff_probability_probe(
    sim::Time t0, geom::CellId prev, sim::Duration extant_sojourn,
    sim::Duration t_est) const {
  return lookup<true, true>(t0, prev, geom::kNoCell, extant_sojourn, t_est);
}

bool HandoffEstimator::supports_caching() const {
  return !is_finite_duration(config_.t_int);
}

sim::Duration HandoffEstimator::max_sojourn(sim::Time t0) const {
  sim::Duration m = 0.0;
  for (const auto& [prev, h] : by_prev_) {
    if (!snapshot_fresh(h, t0)) build_snapshot(h, t0);
    m = std::max(m, h.snapshot.max_sojourn);
  }
  return m;
}

std::vector<FootprintPoint> HandoffEstimator::footprint(
    sim::Time t0, geom::CellId prev) const {
  std::vector<FootprintPoint> out;
  const Snapshot* s = snapshot_for(prev, t0);
  if (s == nullptr) return out;
  out.reserve(s->raw.size());
  for (const NextSpan& span : s->by_next) {
    for (const Selected* x = s->raw.begin(span.raw);
         x != s->raw.end(span.raw); ++x) {
      out.push_back(FootprintPoint{span.next, x->sojourn, x->weight,
                                   x->window});
    }
  }
  return out;
}

void HandoffEstimator::prune(sim::Time t0) {
  if (!is_finite_duration(config_.t_int)) return;
  const sim::Time horizon =
      t0 - config_.t_int -
      config_.period * static_cast<double>(config_.n_win_periods);
  for (auto& [prev, h] : by_prev_) {
    bool changed = false;
    for (auto& [next, ring] : h.by_next) {
      while (!ring.empty() && ring.front().event_time < horizon) {
        ring.pop_front();
        telemetry::bump(tel_evicted_);
        changed = true;
      }
    }
    if (changed) {
      ++h.revision;
      ++state_version_;
    }
  }
}

std::size_t HandoffEstimator::cached_events() const {
  std::size_t n = 0;
  for (const auto& [prev, h] : by_prev_) {
    for (const auto& [next, ring] : h.by_next) n += ring.size();
  }
  return n;
}

template <class Ar>
void HandoffEstimator::io(Ar& ar) {
  if constexpr (Ar::kDecoding) {
    PABR_CHECK(by_prev_.empty(), "estimator load on a non-fresh estimator");
  }
  ar.u64(state_version_);
  ar.f64(last_event_time_);
  // Minimum wire bytes: a prev entry u32 + u64 + b + f64 + u32, a next
  // entry u32 + u32, a quadruplet 2 x f64.
  // On save the entries are walked in key order; a load inserts them.
  auto saved_prev = by_prev_.begin();
  const std::size_t n_prev = ar.count(by_prev_.size(), 25);
  for (std::size_t i = 0; i < n_prev; ++i) {
    geom::CellId prev = Ar::kDecoding ? 0 : saved_prev->first;
    ar.u32(prev);
    PrevHistory& h = Ar::kDecoding ? by_prev_.find_or_insert(prev)
                                   : (saved_prev++)->second;
    ar.u64(h.revision);
    // A snapshot fresh by revision can be rebuilt bit-for-bit at its
    // recorded build time; anything else must stay invalid after load.
    bool fresh = h.snapshot.valid && h.snapshot.revision == h.revision;
    sim::Time built_at = fresh ? h.snapshot.built_at : 0.0;
    ar.b(fresh);
    ar.f64(built_at);
    auto saved_next = h.by_next.begin();
    const std::size_t n_next = ar.count(h.by_next.size(), 8);
    for (std::size_t j = 0; j < n_next; ++j) {
      geom::CellId next = Ar::kDecoding ? 0 : saved_next->first;
      ar.u32(next);
      util::Ring<Quadruplet>& ring = Ar::kDecoding
                                         ? h.by_next.find_or_insert(next)
                                         : (saved_next++)->second;
      const std::size_t n_quads = ar.count(ring.size(), 16);
      for (std::size_t k = 0; k < n_quads; ++k) {
        Quadruplet q{};
        if constexpr (!Ar::kDecoding) q = ring[k];
        ar.f64(q.event_time);
        ar.f64(q.sojourn);
        if constexpr (Ar::kDecoding) {
          q.prev = prev;
          q.next = next;
          ring.push_back(q);
        }
      }
    }
    if constexpr (Ar::kDecoding) {
      if (fresh) build_snapshot(h, built_at);
    }
  }
}

template void HandoffEstimator::io(snapshot::Encoder&);
template void HandoffEstimator::io(snapshot::Decoder&);

}  // namespace pabr::hoef
