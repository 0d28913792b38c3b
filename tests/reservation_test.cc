#include "reservation/reservation.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.h"

namespace pabr::reservation {
namespace {

// Cell 1's estimator observing departures into cell 0 (target) and cell 2.
constexpr geom::CellId kOwner = 1;
constexpr geom::CellId kTarget = 0;
constexpr geom::CellId kOther = 2;
constexpr sim::Time kNow = 100.0;

hoef::HandoffEstimator seeded_estimator() {
  hoef::EstimatorConfig cfg;
  cfg.t_int = sim::kInfiniteDuration;
  hoef::HandoffEstimator e(kOwner, cfg);
  // From prev = 0 (came from target side): half continue to 2, half turn
  // back to 0, all with sojourn 30.
  e.record({10.0, kTarget, kOther, 30.0});
  e.record({11.0, kTarget, kTarget, 30.0});
  // Started-here mobiles (prev == owner): always exit to target after 50 s.
  e.record({12.0, kOwner, kTarget, 50.0});
  return e;
}

/// A connection camped in kOwner that came from `prev` and has stayed
/// `extant` seconds by kNow.
traffic::ConnectionEntry connection(traffic::ConnectionId id,
                                    geom::CellId prev, sim::Duration extant,
                                    traffic::Bandwidth bw) {
  traffic::ConnectionEntry e;
  e.id = id;
  e.bandwidth = bw;
  e.view.reserve_bandwidth = bw;
  e.view.prev_cell = prev;
  e.view.entered_cell_at = kNow - extant;
  return e;
}

/// Eq. (5) from kOwner toward `target` with no route-known mobiles.
double handin(const hoef::HandoffEstimator& e,
              const std::vector<traffic::ConnectionEntry>& table,
              geom::CellId target, sim::Duration t_est) {
  return expected_handin_bandwidth(e, table, nullptr, kOwner, target, kNow,
                                   t_est);
}

TEST(ReservationTest, EmptyConnectionListReservesNothing) {
  auto e = seeded_estimator();
  EXPECT_DOUBLE_EQ(handin(e, {}, kTarget, 60.0), 0.0);
}

TEST(ReservationTest, Eq5SumsBandwidthTimesProbability) {
  auto e = seeded_estimator();
  // A 4-BU video mobile that came from the target side, extant 0: within
  // 60 s it hands off with p = 1; p(next = target) = 1/2. A 1-BU
  // started-here mobile, extant 0: p(target within 60) = 1.
  const std::vector<traffic::ConnectionEntry> conns{
      connection(1, kTarget, 0.0, 4), connection(2, kOwner, 0.0, 1)};
  EXPECT_NEAR(handin(e, conns, kTarget, 60.0), 4.0 * 0.5 + 1.0 * 1.0, 1e-12);
}

TEST(ReservationTest, ShortWindowShrinksReservation) {
  auto e = seeded_estimator();
  const std::vector<traffic::ConnectionEntry> conns{
      connection(1, kTarget, 0.0, 4)};
  // T_est = 20 s < sojourn 30 s: nothing expected yet.
  EXPECT_DOUBLE_EQ(handin(e, conns, kTarget, 20.0), 0.0);
  // T_est = 30 s reaches the observed sojourns.
  EXPECT_NEAR(handin(e, conns, kTarget, 30.0), 2.0, 1e-12);
}

TEST(ReservationTest, ExtantSojournConditionsTheEstimate) {
  auto e = seeded_estimator();
  // Mobile from target side, extant 40 s: both prev=target events (sojourn
  // 30) are outlasted -> estimated stationary.
  EXPECT_DOUBLE_EQ(handin(e, {connection(1, kTarget, 40.0, 4)}, kTarget, 60.0),
                   0.0);
  // Started-here mobile with extant 40 is still expected (sojourn 50).
  EXPECT_NEAR(handin(e, {connection(1, kOwner, 40.0, 1)}, kTarget, 60.0), 1.0,
              1e-12);
}

TEST(ReservationTest, TargetCellMatters) {
  auto e = seeded_estimator();
  const std::vector<traffic::ConnectionEntry> conns{
      connection(1, kTarget, 0.0, 2)};
  EXPECT_NEAR(handin(e, conns, kTarget, 60.0), 1.0, 1e-12);  // 2 BU * 1/2
  EXPECT_NEAR(handin(e, conns, kOther, 60.0), 1.0, 1e-12);   // 2 BU * 1/2
}

TEST(ReservationTest, NegativeWindowRejected) {
  auto e = seeded_estimator();
  EXPECT_THROW(handin(e, {}, kTarget, -1.0), InvariantError);
}

// §7 route knowledge: kOwner's mobiles moving in direction +1 enter
// kTarget next, those moving in -1 enter kOther.
geom::CellId route_next(geom::CellId cell, int direction) {
  EXPECT_EQ(cell, kOwner);
  return direction > 0 ? kTarget : kOther;
}

traffic::ConnectionEntry routed(int direction) {
  traffic::ConnectionEntry e = connection(1, kTarget, 0.0, 4);
  e.view.route_known = true;
  e.view.direction = static_cast<std::int8_t>(direction);
  return e;
}

TEST(ReservationTest, RouteKnownMobileHeadedForTargetUsesAnyHandoff) {
  auto e = seeded_estimator();
  // Headed for kTarget: only the hand-off time is estimated. Both
  // prev = target events (sojourn 30) fall within 60 s, so p = 1 and the
  // 4-BU mobile contributes 4 BU — not the 2 BU of the route-free 1/2.
  const std::vector<traffic::ConnectionEntry> conns{routed(+1)};
  EXPECT_DOUBLE_EQ(expected_handin_bandwidth(e, conns, route_next, kOwner,
                                             kTarget, kNow, 60.0),
                   4.0);
  // Within 20 s no observed hand-off has happened yet.
  EXPECT_DOUBLE_EQ(expected_handin_bandwidth(e, conns, route_next, kOwner,
                                             kTarget, kNow, 20.0),
                   0.0);
}

TEST(ReservationTest, RouteKnownMobileHeadedElsewhereContributesNothing) {
  auto e = seeded_estimator();
  // Headed for kOther: nothing toward kTarget, although the route-free
  // estimate would be 4 BU * 1/2.
  const std::vector<traffic::ConnectionEntry> conns{routed(-1)};
  EXPECT_DOUBLE_EQ(expected_handin_bandwidth(e, conns, route_next, kOwner,
                                             kTarget, kNow, 60.0),
                   0.0);
  // Its whole expected hand-off goes to kOther instead.
  EXPECT_DOUBLE_EQ(expected_handin_bandwidth(e, conns, route_next, kOwner,
                                             kOther, kNow, 60.0),
                   4.0);
}

}  // namespace
}  // namespace pabr::reservation
