#include "traffic/workload.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace pabr::traffic {
namespace {

TEST(WorkloadConfigTest, MeanBandwidthMixesVoiceAndVideo) {
  EXPECT_DOUBLE_EQ(mean_bandwidth(1.0), 1.0);
  EXPECT_DOUBLE_EQ(mean_bandwidth(0.0), 4.0);
  EXPECT_DOUBLE_EQ(mean_bandwidth(0.5), 2.5);
}

TEST(WorkloadConfigTest, OfferedLoadMatchesEq7) {
  WorkloadConfig c;
  c.voice_ratio = 1.0;
  c.arrival_rate_per_cell = 100.0 / 120.0;  // should give L = 100
  EXPECT_NEAR(c.offered_load(), 100.0, 1e-9);
}

TEST(ArrivalRateTest, InvertsEq7) {
  for (double load : {60.0, 100.0, 180.0, 300.0}) {
    for (double rvo : {1.0, 0.8, 0.5}) {
      const double lambda = arrival_rate_for_load(load, rvo);
      WorkloadConfig c;
      c.voice_ratio = rvo;
      c.arrival_rate_per_cell = lambda;
      EXPECT_NEAR(c.offered_load(), load, 1e-9)
          << "load " << load << " rvo " << rvo;
    }
  }
}

TEST(ArrivalRateTest, PaperExampleVoiceOnly) {
  // L = 300, R_vo = 1: lambda = 300 / 120 = 2.5 connections/s/cell.
  EXPECT_NEAR(arrival_rate_for_load(300.0, 1.0), 2.5, 1e-12);
}

TEST(ArrivalRateTest, ValidatesInputs) {
  EXPECT_THROW(arrival_rate_for_load(-1.0, 1.0), pabr::InvariantError);
  EXPECT_THROW(arrival_rate_for_load(100.0, 1.5), pabr::InvariantError);
  EXPECT_THROW(arrival_rate_for_load(100.0, 1.0, 0.0), pabr::InvariantError);
}

class WorkloadGeneratorTest : public ::testing::Test {
 protected:
  WorkloadGenerator make(WorkloadConfig cfg, std::uint64_t seed = 1) {
    return WorkloadGenerator(road_, cfg, sim::Rng(seed));
  }
  geom::LinearTopology road_{10, 1.0, true};
};

TEST_F(WorkloadGeneratorTest, RequestFieldsWithinModelRanges) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  cfg.voice_ratio = 0.5;
  cfg.speed_min_kmh = 80.0;
  cfg.speed_max_kmh = 120.0;
  auto gen = make(cfg);
  bool saw_voice = false;
  bool saw_video = false;
  bool saw_fwd = false;
  bool saw_back = false;
  for (int i = 0; i < 2000; ++i) {
    const auto req = gen.make_request(100.0);
    EXPECT_GE(req.position_km, 0.0);
    EXPECT_LT(req.position_km, 10.0);
    EXPECT_EQ(req.cell, road_.cell_at(req.position_km));
    EXPECT_GE(req.speed_kmh, 80.0);
    EXPECT_LT(req.speed_kmh, 120.0);
    EXPECT_GT(req.lifetime_s, 0.0);
    EXPECT_EQ(req.attempt, 1);
    saw_voice |= req.service == ServiceClass::kVoice;
    saw_video |= req.service == ServiceClass::kVideo;
    saw_fwd |= req.direction == +1;
    saw_back |= req.direction == -1;
  }
  EXPECT_TRUE(saw_voice && saw_video && saw_fwd && saw_back);
}

TEST_F(WorkloadGeneratorTest, IdsAreUniqueAndIncreasing) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  auto gen = make(cfg);
  ConnectionId last = 0;
  for (int i = 0; i < 100; ++i) {
    const auto req = gen.make_request(1.0);
    EXPECT_GT(req.id, last);
    last = req.id;
  }
}

TEST_F(WorkloadGeneratorTest, UnidirectionalMode) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  cfg.bidirectional = false;
  auto gen = make(cfg);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(gen.make_request(1.0).direction, +1);
  }
}

TEST_F(WorkloadGeneratorTest, VoiceRatioOneMeansAllVoice) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  cfg.voice_ratio = 1.0;
  auto gen = make(cfg);
  for (int i = 0; i < 500; ++i) {
    const auto req = gen.make_request(1.0);
    EXPECT_EQ(req.service, ServiceClass::kVoice);
    EXPECT_EQ(req.bandwidth(), kVoiceBandwidth);
  }
}

TEST_F(WorkloadGeneratorTest, ArrivalRateStatisticallyCorrect) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 0.5;  // system rate = 5 /s over 10 cells
  auto gen = make(cfg, 7);
  sim::Time t = 0.0;
  int count = 0;
  while (t < 10000.0) {
    t = gen.next_arrival_after(t);
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / 10000.0, 5.0, 0.15);
}

TEST_F(WorkloadGeneratorTest, ZeroRateNeverArrives) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 0.0;
  auto gen = make(cfg);
  EXPECT_TRUE(std::isinf(gen.next_arrival_after(0.0)));
}

TEST_F(WorkloadGeneratorTest, RateScaleThinsArrivals) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;  // envelope: 10 /s
  auto gen = make(cfg, 11);
  gen.set_rate_scale([](sim::Time) { return 0.25; }, 1.0);
  sim::Time t = 0.0;
  int count = 0;
  while (t < 4000.0) {
    t = gen.next_arrival_after(t);
    ++count;
  }
  // Effective rate 2.5 /s.
  EXPECT_NEAR(static_cast<double>(count) / 4000.0, 2.5, 0.12);
}

TEST_F(WorkloadGeneratorTest, RateScaleEscapingEnvelopeThrows) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  auto gen = make(cfg);
  gen.set_rate_scale([](sim::Time) { return 2.0; }, 1.0);
  EXPECT_THROW(gen.next_arrival_after(0.0), pabr::InvariantError);
}

TEST_F(WorkloadGeneratorTest, SpeedRangeOverrideApplies) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  auto gen = make(cfg);
  gen.set_speed_range(
      [](sim::Time) { return std::pair<double, double>{30.0, 35.0}; });
  for (int i = 0; i < 200; ++i) {
    const auto req = gen.make_request(1.0);
    EXPECT_GE(req.speed_kmh, 30.0);
    EXPECT_LT(req.speed_kmh, 35.0);
  }
}

TEST_F(WorkloadGeneratorTest, LifetimeMeanApproximately120) {
  WorkloadConfig cfg;
  cfg.arrival_rate_per_cell = 1.0;
  auto gen = make(cfg, 13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += gen.make_request(1.0).lifetime_s;
  EXPECT_NEAR(sum / n, 120.0, 4.0);
}

TEST_F(WorkloadGeneratorTest, ConfigValidation) {
  WorkloadConfig bad;
  bad.arrival_rate_per_cell = -1.0;
  EXPECT_THROW(make(bad), pabr::InvariantError);
  WorkloadConfig bad2;
  bad2.voice_ratio = 2.0;
  EXPECT_THROW(make(bad2), pabr::InvariantError);
  WorkloadConfig bad3;
  bad3.speed_min_kmh = 50.0;
  bad3.speed_max_kmh = 40.0;
  EXPECT_THROW(make(bad3), pabr::InvariantError);
}

}  // namespace
}  // namespace pabr::traffic
