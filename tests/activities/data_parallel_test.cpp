#include "pdcu/activities/data_parallel.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "pdcu/support/rng.hpp"

namespace act = pdcu::act;

// --- Array summation --------------------------------------------------------

class SummationStudents : public ::testing::TestWithParam<int> {};

TEST_P(SummationStudents, SumIsExactForAnyGroupSize) {
  pdcu::Rng rng(5);
  std::vector<std::int64_t> cards(101);
  for (auto& c : cards) c = rng.between(-50, 50);
  const std::int64_t expected =
      std::accumulate(cards.begin(), cards.end(), std::int64_t{0});
  auto result = act::array_summation(cards, GetParam());
  EXPECT_EQ(result.sum, expected);
}

INSTANTIATE_TEST_SUITE_P(Groups, SummationStudents,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Summation, VirtualSpeedupGrowsThenPlateaus) {
  pdcu::Rng rng(8);
  std::vector<std::int64_t> cards(1024);
  for (auto& c : cards) c = rng.between(0, 9);
  auto two = act::array_summation(cards, 2);
  auto eight = act::array_summation(cards, 8);
  EXPECT_GT(two.speedup_vs_serial, 1.2);
  EXPECT_GT(eight.speedup_vs_serial, two.speedup_vs_serial);
  // Coordination keeps it below perfect.
  EXPECT_LT(eight.speedup_vs_serial, 8.0);
}

TEST(Summation, EmptyDeckSumsToZero) {
  auto result = act::array_summation({}, 4);
  EXPECT_EQ(result.sum, 0);
}

// --- Parallel search ----------------------------------------------------------

TEST(Search, FindsThePlantedCard) {
  std::vector<std::int64_t> cards(300, 7);
  cards[123] = -1;
  auto result = act::parallel_search(cards, -1, 6);
  EXPECT_EQ(result.found_index, 123);
}

TEST(Search, AbsentTargetScansEverything) {
  std::vector<std::int64_t> cards(120, 7);
  auto result = act::parallel_search(cards, -1, 4);
  EXPECT_EQ(result.found_index, -1);
  EXPECT_EQ(result.cards_flipped, 120);
}

TEST(Search, EarlyTerminationSavesWork) {
  // The target sits at the start of team 0's section: most teams stop
  // after few flips.
  std::vector<std::int64_t> cards(400, 7);
  cards[1] = -1;
  auto result = act::parallel_search(cards, -1, 8);
  EXPECT_EQ(result.found_index, 1);
  EXPECT_LT(result.cards_flipped, 100);
  // Team 0 shouts at tick 2; by then each of the other 7 teams has
  // flipped 2 cards and stops: 2 + 7 * 2.
  EXPECT_EQ(result.cards_flipped, 16);
}

TEST(Search, OneTeamIsSerialScan) {
  std::vector<std::int64_t> cards(50, 3);
  cards[49] = -2;
  auto result = act::parallel_search(cards, -2, 1);
  EXPECT_EQ(result.found_index, 49);
  EXPECT_EQ(result.cards_flipped, 50);
}

// --- Matrix multiplication -------------------------------------------------------

TEST(Matrix, SerialReferenceIsCorrectOnIdentity) {
  auto a = act::Matrix::random(8, 3);
  act::Matrix identity = act::Matrix::zero(8);
  for (std::size_t i = 0; i < 8; ++i) identity.at(i, i) = 1;
  auto product = act::matmul_serial(a, identity);
  EXPECT_EQ(product.data, a.data);
}

class MatmulTeams : public ::testing::TestWithParam<int> {};

TEST_P(MatmulTeams, TeamsMatchSerialNaiveAndBlocked) {
  auto a = act::Matrix::random(17, 5);
  auto b = act::Matrix::random(17, 6);
  auto reference = act::matmul_serial(a, b);
  auto naive = act::matmul_teams(a, b, GetParam(), /*blocked=*/false);
  auto blocked = act::matmul_teams(a, b, GetParam(), /*blocked=*/true);
  EXPECT_EQ(naive.product.data, reference.data);
  EXPECT_EQ(blocked.product.data, reference.data);
}

INSTANTIATE_TEST_SUITE_P(Teams, MatmulTeams, ::testing::Values(1, 2, 3, 4, 8));

TEST(Matrix, BlockingSlashesStripFetches) {
  auto a = act::Matrix::random(24, 1);
  auto b = act::Matrix::random(24, 2);
  auto naive = act::matmul_teams(a, b, 4, false);
  auto blocked = act::matmul_teams(a, b, 4, true);
  EXPECT_GT(naive.strip_fetches, 4 * blocked.strip_fetches);
}

// --- Monte Carlo ------------------------------------------------------------------

TEST(MonteCarlo, EstimatesOneQuarter) {
  auto result = act::coin_flip_monte_carlo(5000, 4, 99);
  EXPECT_EQ(result.flips, 20000);
  EXPECT_NEAR(result.estimate, 0.25, 0.02);
}

TEST(MonteCarlo, MoreSamplesTightenTheEstimate) {
  double small_err = 0;
  double big_err = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    small_err += act::coin_flip_monte_carlo(200, 2, seed).error;
    big_err += act::coin_flip_monte_carlo(20000, 2, seed).error;
  }
  EXPECT_LT(big_err, small_err);
}

TEST(MonteCarlo, NearPerfectVirtualScaling) {
  // Samples share nothing: the virtual makespan of 8 students on N total
  // flips is close to N/8 plus the small pooling tree.
  auto result = act::coin_flip_monte_carlo(1000, 8, 5);
  EXPECT_GT(result.cost.speedup_vs(8000), 6.0);
}

// --- Ballot counting ----------------------------------------------------------------

class BallotCounters : public ::testing::TestWithParam<int> {};

TEST_P(BallotCounters, TallyIsExact) {
  pdcu::Rng rng(31);
  std::vector<std::int64_t> ballots(333);
  std::int64_t expected_a = 0;
  for (auto& b : ballots) {
    b = rng.chance(0.5) ? 0 : 1;
    if (b == 0) ++expected_a;
  }
  auto result = act::ballot_counting(ballots, GetParam());
  EXPECT_EQ(result.votes_a, expected_a);
  EXPECT_EQ(result.votes_a + result.votes_b, 333);
}

INSTANTIATE_TEST_SUITE_P(Counters, BallotCounters,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(Ballots, CombineRoundsAreLogarithmic) {
  std::vector<std::int64_t> ballots(100, 0);
  EXPECT_EQ(act::ballot_counting(ballots, 8).combine_rounds, 3);
  EXPECT_EQ(act::ballot_counting(ballots, 1).combine_rounds, 0);
}

TEST(Ballots, LandslideCountsCorrectly) {
  std::vector<std::int64_t> ballots(64, 1);
  auto result = act::ballot_counting(ballots, 4);
  EXPECT_EQ(result.votes_a, 0);
  EXPECT_EQ(result.votes_b, 64);
}
