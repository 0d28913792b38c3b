// Workload generation per §5.1 assumptions A2-A5:
//   A2: Poisson arrivals, rate lambda per cell, uniform position in cell
//   A3: voice (1 BU) w.p. R_vo, video (4 BU) otherwise
//   A4: direction +/-1 equiprobable, speed uniform in [SP_min, SP_max]
//   A5: exponential lifetime, mean 120 s
//
// The offered load per cell (paper Eq. 7) is
//   L = lambda * E[bandwidth] * mean_lifetime.
#pragma once

#include <functional>

#include "geom/linear_topology.h"
#include "sim/random.h"
#include "sim/time.h"
#include "traffic/connection.h"

namespace pabr::traffic {

struct WorkloadConfig {
  /// Connection generation rate per cell (connections/second/cell).
  double arrival_rate_per_cell = 0.0;
  /// R_vo: fraction of voice connections. Must lie in [0, 1].
  double voice_ratio = 1.0;
  /// Mean connection lifetime in seconds (A5).
  sim::Duration mean_lifetime_s = 120.0;
  /// Speed range [SP_min, SP_max] in km/h (A4).
  double speed_min_kmh = 80.0;
  double speed_max_kmh = 120.0;
  /// When true mobiles pick +/- direction equiprobably; when false all
  /// mobiles move in +1 direction (the Table 3 one-directional scenario).
  bool bidirectional = true;

  /// Offered load per cell, Eq. (7).
  double offered_load() const;
};

/// Mean bandwidth E[b] = R_vo*1 + (1-R_vo)*4 in BUs, the bandwidth factor
/// of Eq. (7).
double mean_bandwidth(double voice_ratio);

/// Solves Eq. (7) for lambda given a target offered load.
double arrival_rate_for_load(double offered_load, double voice_ratio,
                             sim::Duration mean_lifetime_s = 120.0);

/// Draws connection requests on a linear road. Arrivals form one Poisson
/// process of rate n*lambda with the cell chosen uniformly — statistically
/// identical to independent per-cell processes and cheaper to simulate.
class WorkloadGenerator {
 public:
  /// `rate_scale(t)` (optional) multiplies the base arrival rate at time t
  /// — used by the time-varying scenario; must be bounded by
  /// `max_rate_scale` for thinning to stay exact.
  using RateScale = std::function<double(sim::Time)>;
  /// `speed_range(t)` (optional) overrides the speed bounds at time t.
  using SpeedRange = std::function<std::pair<double, double>(sim::Time)>;

  WorkloadGenerator(const geom::LinearTopology& road, WorkloadConfig config,
                    sim::Rng rng);

  /// Installs a time-varying arrival-rate multiplier (Poisson thinning).
  void set_rate_scale(RateScale scale, double max_rate_scale);
  void set_speed_range(SpeedRange range);

  /// Time of the next arrival strictly after `after`, or infinity when the
  /// base rate is zero.
  sim::Time next_arrival_after(sim::Time after);

  /// Materializes the request arriving at time `t`.
  ConnectionRequest make_request(sim::Time t);

  const WorkloadConfig& config() const { return config_; }

  // Snapshot save/restore: the RNG stream position plus the id counter
  // are the generator's only mutable state (the installed profiles are
  // pure functions reinstalled from the config on load).
  std::string rng_state() const { return rng_.save_state(); }
  ConnectionId next_id() const { return next_id_; }
  void restore(const std::string& rng_state, ConnectionId next_id) {
    rng_.load_state(rng_state);
    next_id_ = next_id;
  }

 private:
  const geom::LinearTopology& road_;
  WorkloadConfig config_;
  sim::Rng rng_;
  RateScale rate_scale_;
  double max_rate_scale_ = 1.0;
  SpeedRange speed_range_;
  ConnectionId next_id_ = 1;
};

}  // namespace pabr::traffic
