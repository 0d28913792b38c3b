// Time-of-day traffic/mobility profiles for the §5.3 time-varying
// experiments (paper Fig. 14(a)): the offered load peaks during rush hours
// (~9:00, ~13:00 and ~17-18:00) while average speeds dip, and both follow
// a daily cycle.
//
// A DailyProfile is a piecewise-linear, 24h-periodic curve defined by
// (hour, value) knots. The paper's published curve is provided as
// `paper_load_profile()` / `paper_speed_profile()`.
#pragma once

#include <utility>
#include <vector>

#include "sim/time.h"

namespace pabr::traffic {

class DailyProfile {
 public:
  /// Knots are (hour-of-day in [0,24), value); they are sorted on
  /// construction and interpolated linearly with wrap-around midnight.
  explicit DailyProfile(std::vector<std::pair<double, double>> knots);

  /// Value at absolute simulation time t (seconds), applying the 24 h
  /// period.
  double at(sim::Time t) const;

  /// Value at an hour-of-day in [0, 24).
  double at_hour(double hour) const;

  double max_value() const;
  double min_value() const;

  /// The sorted knot list (snapshot/config serialization).
  const std::vector<std::pair<double, double>>& knots() const {
    return knots_;
  }

 private:
  std::vector<std::pair<double, double>> knots_;
};

/// The original offered load L_o(t) of Fig. 14(a): base ~40 BU off-peak,
/// rush-hour peaks of ~140-160 BU at 9:00, 13:00 and 17:30.
DailyProfile paper_load_profile();

/// Average mobile speed S(t) of Fig. 14(a): ~100 km/h off-peak dropping to
/// ~40 km/h in rush hours; the sampled range is [S-20, S+20].
DailyProfile paper_speed_profile();

/// Half-width of the speed range around S(t) (paper: 20 km/h).
inline constexpr double kPaperSpeedHalfRange = 20.0;

/// Speed bounds [lo, hi] (km/h) at time t of a speed profile S:
/// [S(t) - half, S(t) + half], with lo floored at 1 km/h so sampled speeds
/// stay positive (§5.3, Fig. 14(a)).
std::pair<double, double> speed_band(const DailyProfile& speed,
                                     double half_range_kmh, sim::Time t);

}  // namespace pabr::traffic
