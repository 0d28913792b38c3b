#include "traffic/profiles.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace pabr::traffic {
namespace {

TEST(DailyProfileTest, InterpolatesBetweenKnots) {
  DailyProfile p({{0.0, 10.0}, {12.0, 20.0}});
  EXPECT_DOUBLE_EQ(p.at_hour(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.at_hour(6.0), 15.0);
  EXPECT_DOUBLE_EQ(p.at_hour(12.0), 20.0);
}

TEST(DailyProfileTest, WrapsAcrossMidnight) {
  DailyProfile p({{0.0, 10.0}, {12.0, 20.0}});
  // From hour 12 (20.0) back around to hour 24 == 0 (10.0).
  EXPECT_DOUBLE_EQ(p.at_hour(18.0), 15.0);
  EXPECT_DOUBLE_EQ(p.at_hour(23.999), 10.0 + 0.001 / 12.0 * 10.0);
}

TEST(DailyProfileTest, ContinuousAtMidnightWrapPoint) {
  DailyProfile p({{0.0, 10.0}, {12.0, 20.0}});
  // Hours an epsilon either side of the wrap point agree with hour 0:
  // positive_fmod must map -1e-18 into [0, 24), not onto 24 itself.
  EXPECT_DOUBLE_EQ(p.at_hour(-1e-18), p.at_hour(0.0));
  EXPECT_NEAR(p.at_hour(24.0 - 1e-12), p.at_hour(0.0), 1e-9);
  EXPECT_DOUBLE_EQ(p.at_hour(-0.0), p.at_hour(0.0));
}

TEST(DailyProfileTest, PeriodicOverDays) {
  DailyProfile p({{0.0, 5.0}, {6.0, 50.0}, {18.0, 5.0}});
  for (double h : {3.0, 9.5, 20.0}) {
    EXPECT_NEAR(p.at_hour(h), p.at_hour(h + 24.0), 1e-12);
    EXPECT_NEAR(p.at(h * sim::kHour), p.at(h * sim::kHour + sim::kDay),
                1e-9);
  }
}

TEST(DailyProfileTest, SingleKnotIsConstant) {
  DailyProfile p({{8.0, 42.0}});
  EXPECT_DOUBLE_EQ(p.at_hour(0.0), 42.0);
  EXPECT_DOUBLE_EQ(p.at_hour(8.0), 42.0);
  EXPECT_DOUBLE_EQ(p.at_hour(23.0), 42.0);
}

TEST(DailyProfileTest, MinMaxValues) {
  DailyProfile p({{0.0, 5.0}, {6.0, 50.0}, {18.0, 10.0}});
  EXPECT_DOUBLE_EQ(p.max_value(), 50.0);
  EXPECT_DOUBLE_EQ(p.min_value(), 5.0);
}

TEST(DailyProfileTest, KnotsSortedAutomatically) {
  DailyProfile p({{12.0, 20.0}, {0.0, 10.0}});
  EXPECT_DOUBLE_EQ(p.at_hour(6.0), 15.0);
}

TEST(DailyProfileTest, Validation) {
  EXPECT_THROW(DailyProfile({}), InvariantError);
  EXPECT_THROW(DailyProfile({{24.0, 1.0}}), InvariantError);
  EXPECT_THROW(DailyProfile({{-1.0, 1.0}}), InvariantError);
  EXPECT_THROW(DailyProfile({{6.0, 1.0}, {6.0, 2.0}}), InvariantError);
}

TEST(PaperProfilesTest, LoadPeaksAtRushHours) {
  const auto load = paper_load_profile();
  // Rush-hour peaks (9:00, 17:30) clearly exceed off-peak (3:00).
  EXPECT_GT(load.at_hour(9.0), 2.0 * load.at_hour(3.0));
  EXPECT_GT(load.at_hour(17.5), 2.0 * load.at_hour(3.0));
  // Evening peak is the day's maximum.
  EXPECT_DOUBLE_EQ(load.max_value(), load.at_hour(17.5));
}

TEST(PaperProfilesTest, SpeedDipsAtRushHours) {
  const auto speed = paper_speed_profile();
  EXPECT_LT(speed.at_hour(9.0), speed.at_hour(3.0));
  EXPECT_LT(speed.at_hour(17.5), speed.at_hour(12.0) + 30.0);
  // Speeds stay positive with the paper's +/-20 sampling range.
  for (int h = 0; h < 24; ++h) {
    EXPECT_GT(speed.at_hour(static_cast<double>(h)) -
                  kPaperSpeedHalfRange,
              0.0)
        << "hour " << h;
  }
}

TEST(PaperProfilesTest, LoadAndSpeedAntiCorrelateAtPeaks) {
  const auto load = paper_load_profile();
  const auto speed = paper_speed_profile();
  // §5.3: "the offered load peaks during rush hours ... at low speeds".
  EXPECT_DOUBLE_EQ(speed.min_value(), speed.at_hour(9.0));
  EXPECT_GT(load.at_hour(9.0), load.at_hour(11.0));
  EXPECT_LT(speed.at_hour(9.0), speed.at_hour(11.0));
}

TEST(SpeedBandTest, TracksDailyCurve) {
  const DailyProfile profile({{0.0, 100.0}, {9.0, 40.0}, {18.0, 100.0}});
  const auto midnight = speed_band(profile, 20.0, 0.0);
  EXPECT_DOUBLE_EQ(midnight.first, 80.0);
  EXPECT_DOUBLE_EQ(midnight.second, 120.0);
  const auto rush = speed_band(profile, 20.0, 9.0 * sim::kHour);
  EXPECT_DOUBLE_EQ(rush.first, 20.0);
  EXPECT_DOUBLE_EQ(rush.second, 60.0);
}

TEST(SpeedBandTest, FloorsAtPositiveSpeed) {
  const DailyProfile slow({{0.0, 5.0}});
  const auto band = speed_band(slow, 20.0, 0.0);
  EXPECT_DOUBLE_EQ(band.first, 1.0);
  EXPECT_DOUBLE_EQ(band.second, 25.0);
}

}  // namespace
}  // namespace pabr::traffic
