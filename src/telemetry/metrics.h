// Low-overhead metrics primitives for the telemetry subsystem: named
// counters, gauges, and fixed-bucket histograms collected in a Registry.
//
// Design constraints (see DESIGN.md §9):
//   * a bump is one u64 increment behind a raw pointer — components hold
//     Counter* handed out by the registry and never look names up on the
//     hot path;
//   * each simulator instance owns its own Registry, so the parallel
//     replication driver (sim/parallel.h) needs no locks: one registry is
//     only ever touched by the thread running its system;
//   * snapshots iterate in registration order, so two runs that register
//     the same instruments in the same order serialize identically —
//     keeping --json reports diffable across runs.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace pabr::telemetry {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { count_ += n; }
  std::uint64_t count() const { return count_; }
  void reset() { count_ = 0; }
  /// Snapshot restore: overwrites the tally with a saved value.
  void restore(std::uint64_t count) { count_ = count; }

 private:
  std::uint64_t count_ = 0;
};

/// Last-written value of a polled quantity.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

struct HistogramSummary;

/// Fixed-width-bucket histogram over [lo, hi). Out-of-range samples are
/// NOT clamped into the edge buckets: they land in explicit underflow
/// (x < lo) and overflow (x >= hi) counts, so a saturated edge bucket is
/// distinguishable from a mis-sized range while count()/sum()/min()/max()
/// still cover every sample (count == underflow + in-range + overflow).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Value at quantile q in [0, 1], linearly interpolated inside the
  /// bucket that crosses it. 0 when empty.
  double quantile(double q) const;

  void reset();
  /// Snapshot restore from a summary with the same bucket layout. An
  /// empty summary (count == 0) resets min/max to their sentinels.
  void restore(const HistogramSummary& s);

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A point-in-time copy of every instrument, in registration order.
struct HistogramSummary {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t underflow = 0;  ///< samples below lo
  std::uint64_t overflow = 0;   ///< samples at or above hi
  std::vector<std::uint64_t> buckets;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSummary> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Counter value by name; 0 when absent (snapshot convenience for tests
  /// and report writers, not a hot path).
  std::uint64_t counter(const std::string& name) const;
};

/// Owns the instruments. Lookups by name happen once, at wiring time;
/// instrument pointers stay valid for the registry's lifetime (deque
/// storage, no reallocation).
class Registry {
 public:
  /// Returns the named counter, creating it on first use. Re-requesting a
  /// name returns the same object.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// First use fixes the bucket layout; later calls with the same name
  /// ignore lo/hi/buckets and return the existing histogram.
  Histogram* histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  MetricsSnapshot snapshot() const;
  void reset();  ///< zeroes every instrument, keeps registrations

  /// Snapshot restore: walks `snap` in order, find-or-creating each
  /// instrument and overwriting its state. Replaying the saved
  /// registration order reproduces instrument order exactly, and
  /// instruments wired up before the restore (e.g. the simulators'
  /// pre-registered counters) keep their pointers — deque storage never
  /// reallocates.
  void restore(const MetricsSnapshot& snap);

  std::size_t instruments() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  // registration-ordered names, parallel to the deques
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::unordered_map<std::string, std::size_t> gauge_index_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
};

/// Merges snapshots from independent runs (replications, sweep points)
/// into one: counters sum; gauges average (they are polled levels, not
/// totals); histograms with the same name and bucket layout merge
/// bucket-wise, with p50/p99 recomputed from the merged buckets.
/// Instruments appear in the order of their first occurrence, so merged
/// reports stay diffable.
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& snaps);

/// Null-safe bump used by instrumented components that may run without a
/// bound registry.
inline void bump(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}

}  // namespace pabr::telemetry
