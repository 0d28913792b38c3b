#include "fault/fault.h"

#include <algorithm>
#include <bit>
#include <string>
#include <type_traits>
#include <vector>

#include "snapshot/format.h"
#include "util/check.h"

namespace pabr::fault {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a stateless hash over the draw's full
/// identity — the message-fate primitive (header: pure, order-free).
double hash_uniform01(std::uint64_t seed, geom::CellId from, geom::CellId to,
                      sim::Time t, int attempt, std::uint32_t salt) {
  std::uint64_t h = splitmix64(seed ^ 0x6661756c74ull /* "fault" */);
  h = splitmix64(h ^ static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(from)));
  h = splitmix64(h ^ (static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(to))
                      << 1));
  h = splitmix64(h ^ std::bit_cast<std::uint64_t>(t));
  h = splitmix64(h ^ static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(attempt)));
  h = splitmix64(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t link_key(geom::CellId a, geom::CellId b) {
  const geom::CellId lo = std::min(a, b);
  const geom::CellId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi));
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig config) : config_(std::move(config)) {
  PABR_CHECK(config_.link_mtbf_s >= 0.0 && config_.link_mttr_s > 0.0,
             "fault: bad link MTBF/MTTR");
  PABR_CHECK(config_.station_mtbf_s >= 0.0 && config_.station_mttr_s > 0.0,
             "fault: bad station MTBF/MTTR");
  PABR_CHECK(config_.message_loss >= 0.0 && config_.message_loss <= 1.0,
             "fault: message_loss out of [0,1]");
  PABR_CHECK(config_.message_delay >= 0.0 && config_.message_delay <= 1.0,
             "fault: message_delay out of [0,1]");
  PABR_CHECK(config_.timeout_s > 0.0, "fault: non-positive timeout");
  PABR_CHECK(config_.max_retries >= 0, "fault: negative retry budget");
  PABR_CHECK(config_.backoff_base_s >= 0.0 &&
                 config_.backoff_max_s >= config_.backoff_base_s,
             "fault: bad back-off range");
  PABR_CHECK(config_.degraded_floor_bu >= 0.0,
             "fault: negative degraded reservation floor");
  for (const ScriptedOutage& o : config_.outages) {
    PABR_CHECK(o.until >= o.from, "fault: scripted outage ends before start");
    PABR_CHECK(o.a != geom::kNoCell, "fault: scripted outage without entity");
    PABR_CHECK(o.kind == ScriptedOutage::Kind::kStation ||
                   o.b != geom::kNoCell,
               "fault: scripted link outage without second endpoint");
  }
}

bool FaultInjector::Timeline::up_at(sim::Time t) {
  if (mtbf <= 0.0) return true;  // stochastic process disabled
  extend_past(t);
  // Up iff an even number of flips happened at or before t.
  const auto n = std::upper_bound(flips.begin(), flips.end(), t) -
                 flips.begin();
  return n % 2 == 0;
}

void FaultInjector::Timeline::extend_past(sim::Time t) {
  while (covered_until <= t) {
    // flips alternate up-end / down-end, starting in the up state.
    const bool ending_up = flips.size() % 2 == 0;
    covered_until += rng.exponential(ending_up ? mtbf : mttr);
    flips.push_back(covered_until);
  }
}

bool FaultInjector::scripted_link_down(geom::CellId a, geom::CellId b,
                                       sim::Time t) const {
  for (const ScriptedOutage& o : config_.outages) {
    if (o.kind != ScriptedOutage::Kind::kLink) continue;
    if (link_key(o.a, o.b) != link_key(a, b)) continue;
    if (t >= o.from && t < o.until) return true;
  }
  return false;
}

bool FaultInjector::scripted_station_down(geom::CellId cell,
                                          sim::Time t) const {
  for (const ScriptedOutage& o : config_.outages) {
    if (o.kind != ScriptedOutage::Kind::kStation || o.a != cell) continue;
    if (t >= o.from && t < o.until) return true;
  }
  return false;
}

FaultInjector::Timeline& FaultInjector::link_timeline(geom::CellId a,
                                                      geom::CellId b) {
  const std::uint64_t key = link_key(a, b);
  auto it = links_.find(key);
  if (it == links_.end()) {
    const std::string name = "fault-link-" +
                             std::to_string(std::min(a, b)) + "-" +
                             std::to_string(std::max(a, b));
    it = links_
             .emplace(key, Timeline(sim::derive_seed(config_.seed, name),
                                    config_.link_mtbf_s, config_.link_mttr_s))
             .first;
  }
  return it->second;
}

FaultInjector::Timeline& FaultInjector::station_timeline(geom::CellId cell) {
  auto it = stations_.find(cell);
  if (it == stations_.end()) {
    const std::string name = "fault-station-" + std::to_string(cell);
    it = stations_
             .emplace(cell,
                      Timeline(sim::derive_seed(config_.seed, name),
                               config_.station_mtbf_s, config_.station_mttr_s))
             .first;
  }
  return it->second;
}

bool FaultInjector::link_up(geom::CellId a, geom::CellId b, sim::Time t) {
  if (scripted_link_down(a, b, t)) return false;
  return link_timeline(a, b).up_at(t);
}

bool FaultInjector::station_up(geom::CellId cell, sim::Time t) {
  if (scripted_station_down(cell, t)) return false;
  return station_timeline(cell).up_at(t);
}

bool FaultInjector::message_lost(geom::CellId from, geom::CellId to,
                                 sim::Time t, int attempt, std::uint32_t salt,
                                 double probability) const {
  if (probability <= 0.0) return false;
  return hash_uniform01(config_.seed, from, to, t, attempt, salt) <
         probability;
}

sim::Duration FaultInjector::backoff_before_attempt(int attempt) const {
  PABR_CHECK(attempt >= 1, "backoff_before_attempt: attempt is 1-based");
  sim::Duration d = config_.backoff_base_s;
  for (int i = 1; i < attempt && d < config_.backoff_max_s; ++i) d *= 2.0;
  return std::min(d, config_.backoff_max_s);
}

ExchangeOutcome FaultInjector::exchange_outcome(geom::CellId from,
                                                geom::CellId to, sim::Time t) {
  ExchangeOutcome out;
  // Link/station state is sampled once: the whole virtual ladder spans an
  // instant of simulation time, so retries recover message-level losses
  // but not a down link or station.
  const bool path_up = link_up(from, to, t) && station_up(to, t);
  const int attempts = config_.max_retries + 1;
  for (int k = 0; k < attempts; ++k) {
    ++out.attempts;
    if (!path_up) continue;
    const bool request_lost =
        message_lost(from, to, t, k, 1, config_.message_loss) ||
        message_lost(from, to, t, k, 3, config_.message_delay);
    const bool reply_lost =
        message_lost(to, from, t, k, 2, config_.message_loss) ||
        message_lost(to, from, t, k, 4, config_.message_delay);
    if (!request_lost && !reply_lost) {
      out.delivered = true;
      break;
    }
  }
  return out;
}

template <class Ar>
void FaultInjector::io(Ar& ar) {
  if constexpr (Ar::kDecoding) {
    PABR_CHECK(links_.empty() && stations_.empty(),
               "fault injector load on a non-fresh injector");
  }
  const auto timeline = [&ar](Timeline& tl) {
    std::string rng;
    if constexpr (!Ar::kDecoding) rng = tl.rng.save_state();
    ar.str(rng);
    if constexpr (Ar::kDecoding) tl.rng.load_state(rng);
    snapshot::items(ar, tl.flips, 8, [&](sim::Time& t) { ar.f64(t); });
    ar.f64(tl.covered_until);
  };
  const auto sorted_keys = [](const auto& map) {
    std::vector<typename std::decay_t<decltype(map)>::key_type> keys;
    keys.reserve(map.size());
    for (const auto& [key, tl] : map) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  // A load creates each entry through link_timeline / station_timeline,
  // with its correctly derived stream seed; the saved state then
  // overwrites the lazily generated part. Minimum wire bytes: a timeline
  // is str + u32 + f64, keyed by a u64 link or a u32 station.
  std::vector<std::uint64_t> links = sorted_keys(links_);
  snapshot::items(ar, links, 24, [&](std::uint64_t& key) {
    ar.u64(key);
    timeline(link_timeline(
        static_cast<geom::CellId>(static_cast<std::uint32_t>(key >> 32)),
        static_cast<geom::CellId>(
            static_cast<std::uint32_t>(key & 0xffffffffu))));
  });
  std::vector<geom::CellId> stations = sorted_keys(stations_);
  snapshot::items(ar, stations, 20, [&](geom::CellId& cell) {
    ar.u32(cell);
    timeline(station_timeline(cell));
  });
}

template void FaultInjector::io(snapshot::Encoder&);
template void FaultInjector::io(snapshot::Decoder&);

}  // namespace pabr::fault
