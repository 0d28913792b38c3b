// Bench-owned replays of the two event calendars: a steady stream of
// pop + schedule (and, for sim::EventQueue, cancel + reschedule) at a
// fixed pending depth, timed in batches. The depth comes from the live
// workload, so the figure is the calendar's cost at that workload's size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// ns per event of sim::EventQueue at `depth` pending events: every event
/// pops the earliest entry and schedules one; every fourth also cancels a
/// pending entry and schedules its replacement (a hand-off cancelling the
/// expiry it raced). One sample per batch.
std::vector<double> queue_replay_ns(std::size_t depth, std::uint64_t seed,
                                    int batches, int events_per_batch);

/// The same stream on sim::sharded::EventCalendar (pop + push; the
/// calendar never cancels: each mobile owns exactly one future event).
std::vector<double> calendar_replay_ns(std::size_t depth, int cells,
                                       std::uint64_t seed, int batches,
                                       int events_per_batch);

}  // namespace perfbench
