#include "reservation/reservation.h"

#include "util/check.h"

namespace pabr::reservation {

double expected_handin_bandwidth(
    const hoef::HandoffEstimator& estimator,
    const std::vector<traffic::ConnectionEntry>& table,
    const RouteNextFn& route_next, geom::CellId source, geom::CellId target,
    sim::Time now, sim::Duration t_est, double running) {
  PABR_CHECK(t_est >= 0.0, "negative estimation window");
  for (const traffic::ConnectionEntry& entry : table) {
    running += handin_term<false>(estimator, route_next, source, target,
                                  entry, now, t_est)
                   .value;
  }
  return running;
}

}  // namespace pabr::reservation
