#include "traffic/workload.h"

#include <limits>

#include "util/check.h"

namespace pabr::traffic {

double mean_bandwidth(double voice_ratio) {
  return voice_ratio * kVoiceBandwidth +
         (1.0 - voice_ratio) * kVideoBandwidth;
}

double WorkloadConfig::offered_load() const {
  return arrival_rate_per_cell * mean_bandwidth(voice_ratio) *
         mean_lifetime_s;
}

double arrival_rate_for_load(double offered_load, double voice_ratio,
                             sim::Duration mean_lifetime_s) {
  PABR_CHECK(offered_load >= 0.0, "negative offered load");
  PABR_CHECK(voice_ratio >= 0.0 && voice_ratio <= 1.0,
             "voice ratio out of [0,1]");
  PABR_CHECK(mean_lifetime_s > 0.0, "non-positive lifetime");
  return offered_load / (mean_bandwidth(voice_ratio) * mean_lifetime_s);
}

WorkloadGenerator::WorkloadGenerator(const geom::LinearTopology& road,
                                     WorkloadConfig config, sim::Rng rng)
    : road_(road), config_(config), rng_(rng) {
  PABR_CHECK(config_.arrival_rate_per_cell >= 0.0, "negative arrival rate");
  PABR_CHECK(config_.voice_ratio >= 0.0 && config_.voice_ratio <= 1.0,
             "voice ratio out of [0,1]");
  PABR_CHECK(config_.speed_min_kmh > 0.0 &&
                 config_.speed_max_kmh >= config_.speed_min_kmh,
             "bad speed range");
}

void WorkloadGenerator::set_rate_scale(RateScale scale,
                                       double max_rate_scale) {
  PABR_CHECK(max_rate_scale > 0.0, "non-positive max rate scale");
  rate_scale_ = std::move(scale);
  max_rate_scale_ = max_rate_scale;
}

void WorkloadGenerator::set_speed_range(SpeedRange range) {
  speed_range_ = std::move(range);
}

sim::Time WorkloadGenerator::next_arrival_after(sim::Time after) {
  const double base_rate =
      config_.arrival_rate_per_cell * static_cast<double>(road_.num_cells());
  if (base_rate <= 0.0) return std::numeric_limits<double>::infinity();
  if (!rate_scale_) return after + rng_.exponential(1.0 / base_rate);

  // Poisson thinning against the envelope rate base*max_scale: propose at
  // the envelope rate, accept with probability scale(t)/max_scale.
  const double envelope = base_rate * max_rate_scale_;
  sim::Time t = after;
  for (;;) {
    t += rng_.exponential(1.0 / envelope);
    const double scale = rate_scale_(t);
    PABR_CHECK(scale >= 0.0 && scale <= max_rate_scale_ + 1e-9,
               "rate scale escaped its declared envelope");
    if (rng_.uniform01() < scale / max_rate_scale_) return t;
  }
}

ConnectionRequest WorkloadGenerator::make_request(sim::Time t) {
  ConnectionRequest req;
  req.id = next_id_++;
  req.requested_at = t;
  req.position_km = rng_.uniform(0.0, road_.road_length_km());
  req.cell = road_.cell_at(req.position_km);
  req.direction =
      (config_.bidirectional && rng_.bernoulli(0.5)) ? -1 : +1;
  double lo = config_.speed_min_kmh;
  double hi = config_.speed_max_kmh;
  if (speed_range_) std::tie(lo, hi) = speed_range_(t);
  PABR_CHECK(lo > 0.0 && hi >= lo, "speed range degenerated");
  req.speed_kmh = rng_.uniform(lo, hi);
  req.service = rng_.bernoulli(config_.voice_ratio) ? ServiceClass::kVoice
                                                    : ServiceClass::kVideo;
  req.lifetime_s = rng_.exponential(config_.mean_lifetime_s);
  req.attempt = 1;
  return req;
}

}  // namespace pabr::traffic
