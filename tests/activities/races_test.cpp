#include "pdcu/activities/races.hpp"

#include <gtest/gtest.h>

namespace act = pdcu::act;

// --- SweeteningTheJuice -------------------------------------------------------

TEST(Juice, MutexNeverOversweetens) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto result = act::sweeten_juice(4, 8, act::JuiceMode::kMutex, seed);
    EXPECT_EQ(result.spoonfuls_added, 8) << seed;
    EXPECT_FALSE(result.oversweetened) << seed;
  }
}

TEST(Juice, CompareExchangeNeverOversweetens) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto result =
        act::sweeten_juice(4, 8, act::JuiceMode::kCompareExchange, seed);
    EXPECT_EQ(result.spoonfuls_added, 8) << seed;
    EXPECT_FALSE(result.oversweetened) << seed;
  }
}

TEST(Juice, UnsynchronizedRobotsUsuallyOversweeten) {
  // The classroom bug: both robots pass the check before either adds.
  // It is a race, so assert on frequency rather than a single run.
  int bad = act::count_oversweetened(2, 5, 50, 12345);
  EXPECT_GT(bad, 5);
}

TEST(Juice, UnsynchronizedRunIsReplayedBySeed) {
  // The seed picks the interleaving, so a rerun shows the same race.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto first = act::sweeten_juice(3, 6, act::JuiceMode::kUnsynchronized,
                                    seed);
    auto again = act::sweeten_juice(3, 6, act::JuiceMode::kUnsynchronized,
                                    seed);
    EXPECT_EQ(first.spoonfuls_added, again.spoonfuls_added) << seed;
    EXPECT_EQ(first.oversweetened, again.oversweetened) << seed;
  }
}

TEST(Juice, LostUpdateLeavesGlassBelowSugarAdded) {
  // A robot that writes `seen + 1` over another robot's spoonful loses it:
  // the glass then reads less than the sugar that went in.
  bool lost = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto result =
        act::sweeten_juice(2, 5, act::JuiceMode::kUnsynchronized, seed);
    EXPECT_GE(result.final_sweetness, 5) << seed;
    if (result.final_sweetness < result.spoonfuls_added) lost = true;
  }
  EXPECT_TRUE(lost);
  for (auto mode : {act::JuiceMode::kMutex, act::JuiceMode::kCompareExchange}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      auto result = act::sweeten_juice(2, 5, mode, seed);
      EXPECT_EQ(result.final_sweetness, 5) << seed;
      EXPECT_EQ(result.spoonfuls_added, 5) << seed;
    }
  }
}

TEST(Juice, SingleRobotIsAlwaysExact) {
  for (auto mode : {act::JuiceMode::kUnsynchronized, act::JuiceMode::kMutex,
                    act::JuiceMode::kCompareExchange}) {
    auto result = act::sweeten_juice(1, 6, mode, 3);
    EXPECT_EQ(result.spoonfuls_added, 6);
    EXPECT_FALSE(result.oversweetened);
  }
}

// --- ConcertTickets -------------------------------------------------------------

class TicketStrategySafe
    : public ::testing::TestWithParam<act::TicketStrategy> {};

TEST_P(TicketStrategySafe, SellsEachSeatExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto result = act::sell_tickets(50, 4, GetParam(), seed);
    EXPECT_EQ(result.tickets_issued, 50) << seed;
    EXPECT_EQ(result.double_sold_seats, 0) << seed;
    EXPECT_FALSE(result.oversold) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Coordinated, TicketStrategySafe,
                         ::testing::Values(act::TicketStrategy::kCoarseLock,
                                           act::TicketStrategy::kPerSeatLock,
                                           act::TicketStrategy::kOptimistic),
                         [](const auto& info) {
                           switch (info.param) {
                             case act::TicketStrategy::kCoarseLock:
                               return std::string("CoarseLock");
                             case act::TicketStrategy::kPerSeatLock:
                               return std::string("PerSeatLock");
                             case act::TicketStrategy::kOptimistic:
                               return std::string("Optimistic");
                             default:
                               return std::string("Other");
                           }
                         });

TEST(Tickets, UncoordinatedClerksOversell) {
  // With several clerks and a think-window, double sales should appear in
  // a batch of runs.
  int oversold_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto result = act::sell_tickets(
        40, 4, act::TicketStrategy::kNoCoordination, seed);
    if (result.oversold) ++oversold_runs;
    // Every seat got at least one ticket even in the racy mode.
    EXPECT_GE(result.tickets_issued, 40);
  }
  EXPECT_GT(oversold_runs, 2);
}

TEST(Tickets, UncoordinatedRunIsReplayedBySeed) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto first = act::sell_tickets(
        40, 4, act::TicketStrategy::kNoCoordination, seed);
    auto again = act::sell_tickets(
        40, 4, act::TicketStrategy::kNoCoordination, seed);
    EXPECT_EQ(first.tickets_issued, again.tickets_issued) << seed;
    EXPECT_EQ(first.double_sold_seats, again.double_sold_seats) << seed;
  }
}

TEST(Tickets, OneClerkCannotOversell) {
  auto result = act::sell_tickets(
      30, 1, act::TicketStrategy::kNoCoordination, 9);
  EXPECT_EQ(result.tickets_issued, 30);
  EXPECT_FALSE(result.oversold);
}

// --- IntersectionSynchronization --------------------------------------------------

class IntersectionControlCase
    : public ::testing::TestWithParam<act::IntersectionControl> {};

TEST_P(IntersectionControlCase, MutualExclusionAndCompleteness) {
  auto result = act::run_intersection(4, 30, GetParam());
  EXPECT_TRUE(result.mutual_exclusion_held);
  EXPECT_EQ(result.total_crossings, 120);
  EXPECT_EQ(result.max_crossings_by_one_car, 30);
  EXPECT_EQ(result.min_crossings_by_one_car, 30);
}

INSTANTIATE_TEST_SUITE_P(
    Controls, IntersectionControlCase,
    ::testing::Values(act::IntersectionControl::kStopSign,
                      act::IntersectionControl::kTrafficLight,
                      act::IntersectionControl::kPoliceOfficer,
                      act::IntersectionControl::kTokenRoad),
    [](const auto& info) {
      switch (info.param) {
        case act::IntersectionControl::kStopSign:
          return std::string("StopSign");
        case act::IntersectionControl::kTrafficLight:
          return std::string("TrafficLight");
        case act::IntersectionControl::kPoliceOfficer:
          return std::string("PoliceOfficer");
        case act::IntersectionControl::kTokenRoad:
          return std::string("TokenRoad");
      }
      return std::string("Other");
    });

TEST(Intersection, SingleCarTrivially) {
  auto result =
      act::run_intersection(1, 100, act::IntersectionControl::kStopSign);
  EXPECT_TRUE(result.mutual_exclusion_held);
  EXPECT_EQ(result.total_crossings, 100);
}

// --- DinnerPartyProducers ----------------------------------------------------------

TEST(DinnerParty, EveryDishServedExactlyOnce) {
  auto result = act::dinner_party(3, 2, 25, 4);
  EXPECT_EQ(result.dishes_cooked, 75);
  EXPECT_EQ(result.dishes_served, 75);
  EXPECT_TRUE(result.every_dish_served_once);
}

TEST(DinnerParty, TinyWindowForcesFullStalls) {
  auto result = act::dinner_party(4, 1, 25, 1);
  EXPECT_TRUE(result.every_dish_served_once);
  EXPECT_GT(result.window_full_stalls, 0);
}

TEST(DinnerParty, ManyWaitersFewCooksEmptyStalls) {
  auto result = act::dinner_party(1, 4, 30, 8);
  EXPECT_TRUE(result.every_dish_served_once);
  EXPECT_EQ(result.dishes_served, 30);
}

TEST(DinnerParty, MoreWaitersThanDishes) {
  auto result = act::dinner_party(1, 6, 2, 4);
  EXPECT_EQ(result.dishes_served, 2);
  EXPECT_TRUE(result.every_dish_served_once);
}
