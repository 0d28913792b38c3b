#include "fuzz/coverage.h"

#include <algorithm>

#include "admission/policy.h"

namespace pabr::fuzz {
namespace {

void add(std::vector<std::string>& out, std::string f) {
  out.push_back(std::move(f));
}

void add_bucketed(std::vector<std::string>& out, const std::string& name,
                  std::uint64_t n) {
  add(out, name + ":b" + std::to_string(magnitude_bucket(n)));
}

}  // namespace

std::uint64_t magnitude_bucket(std::uint64_t n) {
  if (n == 0) return 0;
  std::uint64_t b = 1;
  while (b * 2 <= n && b < (std::uint64_t{1} << 16)) b *= 2;
  return b;
}

Signature run_signature(const Genome& g, const core::SystemStatus& s,
                        const telemetry::MetricsSnapshot& m,
                        std::uint64_t wired_blocks,
                        std::uint64_t wired_drops) {
  std::vector<std::string> f;
  f.reserve(48);

  // ---- Structural genome features ----------------------------------------
  const std::string pol = admission::policy_kind_name(g.policy);
  add(f, g.hex ? "topo:hex" : "topo:linear");
  add(f, (g.hex ? g.wrap : g.ring) ? "topo:closed" : "topo:open");
  add_bucketed(f, "topo:cells", static_cast<std::uint64_t>(g.num_cells()));
  add(f, "policy:" + pol);
  if (!g.hex) {
    if (g.adaptive_qos) add(f, "cfg:adaptive");
    if (g.wired) add(f, "cfg:wired");
    if (g.soft_capacity_margin > 0.0) add(f, "cfg:softcap");
    if (g.soft_handoff_zone_km > 0.0) add(f, "cfg:softho");
    if (g.known_route_fraction > 0.0) add(f, "cfg:gps");
    if (g.retry) add(f, "cfg:retry");
    // Every distinct toggle COMBINATION is its own feature. Single-toggle
    // features saturate after a handful of runs; the set feature is the
    // retention ladder that lets mutation + crossover climb toward rare
    // conjunctions one new combination at a time (the planted-bug
    // self-check exercises exactly this dynamic).
    unsigned mask = 0;
    if (g.ring) mask |= 1u;
    if (g.adaptive_qos) mask |= 2u;
    if (g.wired) mask |= 4u;
    if (g.soft_capacity_margin > 0.0) mask |= 8u;
    if (g.soft_handoff_zone_km > 0.0) mask |= 16u;
    if (g.known_route_fraction > 0.0) mask |= 32u;
    if (g.retry) mask |= 64u;
    if (g.faults) mask |= 128u;
    add(f, "cfgset:" + std::to_string(mask));
    // ... and the combination crossed with the hand-off pressure regimes
    // actually reached, so "same toggles, now with contention" is new.
    if (s.soft_fallbacks > 0) add(f, "cfgset:" + std::to_string(mask) + ":fb");
    if (s.degrades > 0) add(f, "cfgset:" + std::to_string(mask) + ":dg");
    if (s.drops > 0) add(f, "cfgset:" + std::to_string(mask) + ":dr");
  }
  if (g.t_int != 0.0) add(f, "cfg:finite_tint");
  if (g.arrival_rate_per_cell == 0.0) add(f, "cfg:zero_arrivals");
  if (g.faults) {
    add(f, "fault:on");
    if (g.message_loss > 0.0) add(f, "fault:loss");
    if (g.message_delay > 0.0) add(f, "fault:delay");
    if (g.link_mtbf_s > 0.0) add(f, "fault:links");
    if (g.station_mtbf_s > 0.0) add(f, "fault:stations");
    add_bucketed(f, "fault:scripted", g.outages.size());
    // Overlapping scripted windows exercise the OR-ed outage logic; a
    // window wholly past the horizon must be inert (edge-case regime).
    for (std::size_t i = 0; i < g.outages.size(); ++i) {
      if (g.outages[i].from >= g.duration) add(f, "fault:outside_horizon");
      for (std::size_t j = i + 1; j < g.outages.size(); ++j) {
        const auto& a = g.outages[i];
        const auto& b = g.outages[j];
        if (a.from < b.until && b.from < a.until) add(f, "fault:overlap");
      }
    }
  }

  // ---- Resume-probe features ----------------------------------------------
  add_bucketed(f, "resume:points", g.snap_fractions.size());
  for (const double frac : g.snap_fractions) {
    if (frac <= 0.02 || frac >= 0.98) add(f, "resume:boundary");
  }

  // ---- SystemStatus regimes (available in every build) --------------------
  add_bucketed(f, "run:requests", s.requests);
  add_bucketed(f, "run:blocks", s.blocks);
  add_bucketed(f, "run:handoffs", s.handoffs);
  add_bucketed(f, "run:drops", s.drops);
  add_bucketed(f, "run:br_calcs", s.br_calculations);
  add_bucketed(f, "run:degrades", s.degrades);
  add_bucketed(f, "run:upgrades", s.upgrades);
  add_bucketed(f, "run:soft_allocs", s.soft_allocations);
  add_bucketed(f, "run:soft_fallbacks", s.soft_fallbacks);
  add_bucketed(f, "run:wired_blocks", wired_blocks);
  add_bucketed(f, "run:wired_drops", wired_drops);
  // Per-policy admit/reject/drop regimes — the cross products the
  // AC1/AC2/AC3 comparison paths care about.
  if (s.requests > s.blocks) add(f, pol + ":admit");
  if (s.blocks > 0) add(f, pol + ":block");
  if (s.handoffs > 0) add(f, pol + ":handoff");
  if (s.drops > 0) add(f, pol + ":drop");
  if (s.degrades > 0) add(f, pol + ":degrade");

  // ---- Telemetry counters -------------------------------------------------
  // The retry ladder, degraded-mode substitutions and soft hand-off flows
  // only surface here; an empty snapshot simply contributes nothing.
  for (const auto& [name, value] : m.counters) {
    static const char* kGuided[] = {
        "admission.retries",        "handoff.off_road",
        "connection.expired",       "softho.alloc",
        "softho.fallback",          "fault.retries",
        "fault.timeouts",           "fault.ac_local_fallbacks",
        "fault.floor_substitutions","fault.station_blocks",
        "fault.station_drops",      "fault.pair_resyncs",
    };
    for (const char* want : kGuided) {
      if (name == want) {
        add_bucketed(f, name, value);
        if (value > 0 && name.rfind("fault.", 0) == 0) {
          add(f, pol + ":" + name);  // policy x degraded-mode cross regime
        }
        break;
      }
    }
  }

  std::sort(f.begin(), f.end());
  f.erase(std::unique(f.begin(), f.end()), f.end());
  Signature sig;
  sig.features = std::move(f);
  return sig;
}

std::size_t CoverageMap::merge(const Signature& sig) {
  std::size_t fresh = 0;
  for (const std::string& feat : sig.features) {
    if (seen_.insert(feat).second) ++fresh;
  }
  return fresh;
}

}  // namespace pabr::fuzz
