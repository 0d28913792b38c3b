#include "traffic/profiles.h"

#include <algorithm>

#include "util/check.h"
#include "util/mathx.h"

namespace pabr::traffic {

DailyProfile::DailyProfile(std::vector<std::pair<double, double>> knots)
    : knots_(std::move(knots)) {
  PABR_CHECK(!knots_.empty(), "DailyProfile: no knots");
  for (const auto& [h, v] : knots_) {
    PABR_CHECK(h >= 0.0 && h < 24.0, "DailyProfile: hour out of [0,24)");
    (void)v;
  }
  std::sort(knots_.begin(), knots_.end());
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    PABR_CHECK(knots_[i].first > knots_[i - 1].first,
               "DailyProfile: duplicate knot hour");
  }
}

double DailyProfile::at_hour(double hour) const {
  hour = mathx::positive_fmod(hour, 24.0);
  if (knots_.size() == 1) return knots_.front().second;

  // Find the knot interval containing `hour`, wrapping across midnight.
  auto it = std::upper_bound(
      knots_.begin(), knots_.end(), hour,
      [](double h, const std::pair<double, double>& k) { return h < k.first; });
  const auto& hi = (it == knots_.end()) ? knots_.front() : *it;
  const auto& lo = (it == knots_.begin()) ? knots_.back() : *std::prev(it);

  double span = hi.first - lo.first;
  double offset = hour - lo.first;
  if (span <= 0.0) span += 24.0;    // wrapped interval
  if (offset < 0.0) offset += 24.0;
  const double frac = offset / span;
  return lo.second + (hi.second - lo.second) * frac;
}

double DailyProfile::at(sim::Time t) const {
  return at_hour(t / sim::kHour);
}

double DailyProfile::max_value() const {
  double m = knots_.front().second;
  for (const auto& [h, v] : knots_) m = std::max(m, v);
  return m;
}

double DailyProfile::min_value() const {
  double m = knots_.front().second;
  for (const auto& [h, v] : knots_) m = std::min(m, v);
  return m;
}

std::pair<double, double> speed_band(const DailyProfile& speed,
                                     double half_range_kmh, sim::Time t) {
  const double s = speed.at(t);
  const double lo = std::max(1.0, s - half_range_kmh);
  return {lo, std::max(lo, s + half_range_kmh)};
}

DailyProfile paper_load_profile() {
  // Knots traced from Fig. 14(a): off-peak base load with three rush-hour
  // peaks at 9:00, 13:00 and 17:30.
  return DailyProfile({
      {0.0, 20.0},
      {6.0, 30.0},
      {8.0, 100.0},
      {9.0, 150.0},
      {10.0, 80.0},
      {12.0, 90.0},
      {13.0, 120.0},
      {14.0, 70.0},
      {16.5, 110.0},
      {17.5, 160.0},
      {19.0, 70.0},
      {22.0, 30.0},
  });
}

DailyProfile paper_speed_profile() {
  // Speeds dip when the road is congested (rush hours) and recover at
  // night: O3 of §3 ("the speeds of all mobiles ... are closely
  // correlated" during rush hours).
  return DailyProfile({
      {0.0, 110.0},
      {6.0, 100.0},
      {8.0, 60.0},
      {9.0, 40.0},
      {10.0, 80.0},
      {12.0, 70.0},
      {13.0, 50.0},
      {14.0, 80.0},
      {16.5, 60.0},
      {17.5, 40.0},
      {19.0, 90.0},
      {22.0, 110.0},
  });
}

}  // namespace pabr::traffic
