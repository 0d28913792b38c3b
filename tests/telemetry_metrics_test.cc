// Counters, gauges, histograms, the registry, and snapshot merging
// (telemetry/metrics.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace pabr::telemetry {
namespace {

TEST(TelemetryMetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.count(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.count(), 42u);
  c.reset();
  EXPECT_EQ(c.count(), 0u);
}

TEST(TelemetryMetricsTest, BumpIsNullSafe) {
  bump(nullptr);  // must not crash
  Counter c;
  bump(&c, 3);
  EXPECT_EQ(c.count(), 3u);
}

TEST(TelemetryMetricsTest, HistogramBucketsAndStats) {
  Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.6, 9.9}) h.add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.9);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(TelemetryMetricsTest, HistogramRoutesOutOfRangeToOverflowBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(10.0);  // hi edge is exclusive -> overflow, not the last bucket
  h.add(1e9);
  EXPECT_EQ(h.count(), 3u);  // every sample is still accounted for
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  // The edge buckets stay clean: a saturated last bucket now always means
  // genuine in-range mass, never a mis-sized range.
  EXPECT_EQ(h.buckets().front(), 0u);
  EXPECT_EQ(h.buckets().back(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), -100.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(TelemetryMetricsTest, HistogramSamplesBeyondTopEdgeAreCounted) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 7; ++i) h.add(2.0 + i);  // all beyond the top edge
  h.add(0.5);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.overflow(), 7u);
  EXPECT_EQ(h.underflow(), 0u);
  std::uint64_t in_range = 0;
  for (std::uint64_t b : h.buckets()) in_range += b;
  EXPECT_EQ(in_range, 1u);
  // Quantiles past the in-range mass report the top edge — the tightest
  // bound the layout can give — instead of pretending the tail is inside.
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
  h.reset();
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.underflow(), 0u);
}

TEST(TelemetryMetricsTest, SnapshotAndMergeCarryOverflowCounts) {
  Registry r1, r2;
  Histogram* h1 = r1.histogram("h", 0.0, 10.0, 10);
  Histogram* h2 = r2.histogram("h", 0.0, 10.0, 10);
  h1->add(-1.0);
  h1->add(5.0);
  h2->add(99.0);
  h2->add(42.0);
  const MetricsSnapshot m = merge_snapshots({r1.snapshot(), r2.snapshot()});
  ASSERT_EQ(m.histograms.size(), 1u);
  EXPECT_EQ(m.histograms[0].count, 4u);
  EXPECT_EQ(m.histograms[0].underflow, 1u);
  EXPECT_EQ(m.histograms[0].overflow, 2u);
}

TEST(TelemetryMetricsTest, HistogramQuantiles) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // Uniform fill: quantiles land near q * range.
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  Histogram empty(0.0, 1.0, 4);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(TelemetryMetricsTest, RegistryDeduplicatesByName) {
  Registry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y"), a);
  Histogram* h1 = reg.histogram("h", 0.0, 1.0, 4);
  Histogram* h2 = reg.histogram("h", 0.0, 99.0, 7);  // layout ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->buckets().size(), 4u);
  EXPECT_EQ(reg.instruments(), 3u);  // x, y, h
}

TEST(TelemetryMetricsTest, SnapshotPreservesRegistrationOrder) {
  Registry reg;
  reg.counter("b")->add(2);
  reg.counter("a")->add(1);
  reg.gauge("g")->set(3.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "b");  // registration order, not sorted
  EXPECT_EQ(snap.counters[1].first, "a");
  EXPECT_EQ(snap.counter("b"), 2u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.5);
}

TEST(TelemetryMetricsTest, RegistryResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter* c = reg.counter("c");
  c->add(5);
  reg.histogram("h", 0.0, 1.0, 2)->add(0.5);
  reg.reset();
  EXPECT_EQ(c->count(), 0u);
  EXPECT_EQ(reg.counter("c"), c);  // same object survives
  EXPECT_EQ(reg.snapshot().histograms[0].count, 0u);
}

TEST(TelemetryMetricsTest, MergeSnapshotsSumsCountersAveragesGauges) {
  Registry r1, r2;
  r1.counter("n")->add(3);
  r2.counter("n")->add(4);
  r2.counter("only2")->add(1);
  r1.gauge("g")->set(10.0);
  r2.gauge("g")->set(20.0);
  const MetricsSnapshot m =
      merge_snapshots({r1.snapshot(), r2.snapshot()});
  EXPECT_EQ(m.counter("n"), 7u);
  EXPECT_EQ(m.counter("only2"), 1u);
  ASSERT_EQ(m.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(m.gauges[0].second, 15.0);
}

TEST(TelemetryMetricsTest, MergeSnapshotsMergesHistogramsBucketwise) {
  Registry r1, r2;
  Histogram* h1 = r1.histogram("h", 0.0, 10.0, 10);
  Histogram* h2 = r2.histogram("h", 0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) h1->add(2.5);
  for (int i = 0; i < 50; ++i) h2->add(7.5);
  const MetricsSnapshot m =
      merge_snapshots({r1.snapshot(), r2.snapshot()});
  ASSERT_EQ(m.histograms.size(), 1u);
  const HistogramSummary& h = m.histograms[0];
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 500.0);
  EXPECT_DOUBLE_EQ(h.min, 2.5);
  EXPECT_DOUBLE_EQ(h.max, 7.5);
  // Median of the merged distribution sits between the two spikes.
  EXPECT_NEAR(h.p50, 3.0, 0.5);
  EXPECT_NEAR(h.p99, 8.0, 0.5);
}

}  // namespace
}  // namespace pabr::telemetry
