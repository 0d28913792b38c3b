#include "replay.h"

#include <algorithm>
#include <random>

#include "bench.h"
#include "sim/event_queue.h"
#include "sim/sharded/calendar.h"

namespace perfbench {
namespace {

// Mean time between a mobile's scheduled events; only the ratio of the
// delays to the depth matters for the heap's shape.
constexpr double kMeanDelay = 60.0;

struct Draws {
  std::vector<double> delay;
  std::vector<std::size_t> slot;
};

// Random inputs of one batch, drawn before its timer starts.
Draws draw_batch(std::mt19937_64& rng, std::size_t depth, int n) {
  std::exponential_distribution<double> delay(1.0 / kMeanDelay);
  std::uniform_int_distribution<std::size_t> slot(0, depth - 1);
  Draws d;
  d.delay.resize(static_cast<std::size_t>(n));
  d.slot.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    d.delay[static_cast<std::size_t>(i)] = delay(rng);
    d.slot[static_cast<std::size_t>(i)] = slot(rng);
  }
  return d;
}

}  // namespace

std::vector<double> queue_replay_ns(std::size_t depth, std::uint64_t seed,
                                    int batches, int events_per_batch) {
  depth = std::max<std::size_t>(depth, 1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> first(0.0, kMeanDelay);
  const auto noop = [] {};

  pabr::sim::EventQueue q;
  std::vector<pabr::sim::EventHandle> handles(depth);
  for (auto& h : handles) h = q.schedule(first(rng), noop);

  std::vector<double> out;
  double now = 0.0;
  for (int b = 0; b < batches; ++b) {
    const Draws d = draw_batch(rng, depth, events_per_batch);
    const auto t0 = Clock::now();
    for (int i = 0; i < events_per_batch; ++i) {
      const auto k = static_cast<std::size_t>(i);
      auto [t, cb] = q.pop();
      cb();
      now = t;
      // A failed cancel (the entry already fired) books nothing, so the
      // pending depth stays fixed.
      if (i % 4 == 0 && q.cancel(handles[d.slot[k]])) {
        handles[d.slot[k]] = q.schedule(now + d.delay[k], noop);
      }
      handles[(d.slot[k] + 1) % depth] =
          q.schedule(now + d.delay[k] * 0.5 + kMeanDelay * 0.5, noop);
    }
    out.push_back(seconds_since(t0) * 1e9 / events_per_batch);
  }
  return out;
}

std::vector<double> calendar_replay_ns(std::size_t depth, int cells,
                                       std::uint64_t seed, int batches,
                                       int events_per_batch) {
  using pabr::sim::sharded::EventKind;
  using pabr::sim::sharded::PendingEvent;
  depth = std::max<std::size_t>(depth, 1);
  cells = std::max(cells, 1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> first(0.0, kMeanDelay);
  std::uniform_int_distribution<int> cell(0, cells - 1);
  std::uniform_int_distribution<int> kind(1, 3);

  pabr::sim::sharded::EventCalendar cal;
  std::uint64_t next_id = 1;
  const auto make = [&](double t) {
    PendingEvent e;
    e.time = t;
    e.kind = static_cast<EventKind>(kind(rng));
    e.cell = cell(rng);
    e.id = next_id++;
    e.mobile.id = e.id;
    return e;
  };
  for (std::size_t i = 0; i < depth; ++i) cal.push(make(first(rng)));

  std::vector<double> out;
  for (int b = 0; b < batches; ++b) {
    const Draws d = draw_batch(rng, depth, events_per_batch);
    std::vector<PendingEvent> fresh;
    fresh.reserve(static_cast<std::size_t>(events_per_batch));
    for (int i = 0; i < events_per_batch; ++i) fresh.push_back(make(0.0));
    const auto t0 = Clock::now();
    for (int i = 0; i < events_per_batch; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const PendingEvent e = cal.pop();
      fresh[k].time = e.time + d.delay[k];
      cal.push(fresh[k]);
    }
    out.push_back(seconds_since(t0) * 1e9 / events_per_batch);
  }
  return out;
}

}  // namespace perfbench
