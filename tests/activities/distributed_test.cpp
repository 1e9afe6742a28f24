#include "pdcu/activities/distributed.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "pdcu/support/rng.hpp"

namespace act = pdcu::act;
namespace rt = pdcu::rt;

// --- Token ring ---------------------------------------------------------------

TEST(TokenRing, LegitimateStateHasOneToken) {
  act::TokenRing ring{{3, 3, 3, 3, 3}, 5};
  EXPECT_EQ(ring.token_count(), 1);  // only the root is privileged
  EXPECT_TRUE(ring.legitimate());
}

TEST(TokenRing, CorruptStateHasManyTokens) {
  act::TokenRing ring{{0, 1, 2, 3, 4}, 5};
  EXPECT_GT(ring.token_count(), 1);
  EXPECT_FALSE(ring.legitimate());
}

TEST(TokenRing, StepOnUnprivilegedAgentIsANoop) {
  act::TokenRing ring{{3, 3, 3, 3, 3}, 5};
  auto before = ring.states;
  ring.step(2);  // not privileged
  EXPECT_EQ(ring.states, before);
}

TEST(TokenRing, RootIncrementsModK) {
  act::TokenRing ring{{4, 4, 4}, 5};
  ring.step(0);
  EXPECT_EQ(ring.states[0], 0);  // (4+1) % 5
}

struct RingCase {
  std::size_t n;
  rt::SchedulePolicy policy;
};

class TokenRingStabilizes : public ::testing::TestWithParam<RingCase> {};

TEST_P(TokenRingStabilizes, FromManyCorruptStates) {
  // Self-stabilization: from ANY initial state, under ANY schedule, the
  // ring reaches exactly one token and stays legitimate (closure).
  const auto [n, policy] = GetParam();
  const int k = static_cast<int>(n) + 1;  // Dijkstra requires K >= n
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    pdcu::Rng rng(seed);
    std::vector<int> states(n);
    for (auto& s : states) s = static_cast<int>(rng.below(k));
    auto result = act::stabilize_token_ring(states, k, policy, seed,
                                            200000, 500);
    EXPECT_TRUE(result.stabilized) << "n=" << n << " seed=" << seed;
    EXPECT_TRUE(result.stayed_legitimate) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, TokenRingStabilizes,
    ::testing::Values(RingCase{3, rt::SchedulePolicy::kRoundRobin},
                      RingCase{5, rt::SchedulePolicy::kRandom},
                      RingCase{8, rt::SchedulePolicy::kShuffled},
                      RingCase{12, rt::SchedulePolicy::kReversed},
                      RingCase{12, rt::SchedulePolicy::kRandom}),
    [](const ::testing::TestParamInfo<RingCase>& info) {
      return "n" + std::to_string(info.param.n) + "p" +
             std::to_string(static_cast<int>(info.param.policy));
    });

TEST(TokenRing, RecoversFromRepeatedFaultInjection) {
  // Failure injection: run to legitimacy, corrupt a random student's
  // state, and verify the ring re-stabilizes — ten consecutive faults.
  pdcu::Rng rng(77);
  const int n = 9;
  const int k = n + 1;
  std::vector<int> states(n, 0);
  for (int fault = 0; fault < 10; ++fault) {
    states[rng.below(n)] = static_cast<int>(rng.below(k));  // lightning
    auto result = act::stabilize_token_ring(
        states, k, rt::SchedulePolicy::kRandom,
        1000 + static_cast<std::uint64_t>(fault), 100000, 50);
    ASSERT_TRUE(result.stabilized) << "fault " << fault;
    ASSERT_TRUE(result.stayed_legitimate) << "fault " << fault;
    // Continue from a fresh legitimate configuration.
    std::fill(states.begin(), states.end(),
              static_cast<int>(rng.below(k)));
  }
}

TEST(TokenRing, TokenCountNeverIncreases) {
  // The key monotonicity lemma behind Dijkstra's proof: moves never
  // create tokens.
  pdcu::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.below(10);
    const int k = static_cast<int>(n) + 1;
    std::vector<int> states(n);
    for (auto& s : states) s = static_cast<int>(rng.below(k));
    act::TokenRing ring{states, k};
    int tokens = ring.token_count();
    for (int step = 0; step < 500; ++step) {
      ring.step(rng.below(n));
      const int now = ring.token_count();
      ASSERT_LE(now, tokens) << "tokens increased at trial " << trial;
      ASSERT_GE(now, 1);  // at least one student is always privileged
      tokens = now;
    }
  }
}

TEST(TokenRing, AlreadyLegitimateStabilizesInZeroSteps) {
  auto result = act::stabilize_token_ring({2, 2, 2, 2}, 5,
                                          rt::SchedulePolicy::kRandom, 1,
                                          1000);
  EXPECT_TRUE(result.stabilized);
  EXPECT_EQ(result.steps, 0u);
}

// --- Leader election -------------------------------------------------------------

TEST(LeaderElection, GossipElectsTheMaximum) {
  std::vector<std::int64_t> ids = {12, 99, 5, 40, 77};
  auto result = act::leader_election_gossip(
      ids, rt::SchedulePolicy::kRoundRobin, 1, 100000);
  EXPECT_TRUE(result.elected_maximum);
  EXPECT_EQ(result.leader_id, 99);
  EXPECT_TRUE(result.stable);
}

TEST(LeaderElection, GossipStableUnderEverySchedule) {
  std::vector<std::int64_t> ids = {4, 8, 15, 16, 23, 42, 7, 1};
  for (auto policy :
       {rt::SchedulePolicy::kRoundRobin, rt::SchedulePolicy::kReversed,
        rt::SchedulePolicy::kRandom, rt::SchedulePolicy::kShuffled}) {
    auto result = act::leader_election_gossip(ids, policy, 3, 100000);
    EXPECT_TRUE(result.elected_maximum);
    EXPECT_TRUE(result.stable);
    EXPECT_EQ(result.leader_id, 42);
  }
}

TEST(LeaderElection, RingElectsMaximumAndEveryoneLearns) {
  std::vector<std::int64_t> ids = {31, 7, 88, 2, 54};
  auto result = act::leader_election_ring(ids);
  EXPECT_TRUE(result.elected_maximum);
  EXPECT_EQ(result.leader_id, 88);
}

TEST(LeaderElection, RingMessageCountIsReasonable) {
  // Chang-Roberts: between n (announcement) + n and O(n^2) messages.
  std::vector<std::int64_t> ids;
  for (int i = 1; i <= 10; ++i) ids.push_back(i * 3);
  auto result = act::leader_election_ring(ids);
  EXPECT_TRUE(result.elected_maximum);
  EXPECT_GE(result.messages, 2 * 10);
  EXPECT_LE(result.messages, 10 * 10 + 10);
}

TEST(LeaderElection, SingleParticipant) {
  auto result = act::leader_election_gossip(
      {7}, rt::SchedulePolicy::kRandom, 1, 100);
  EXPECT_TRUE(result.elected_maximum);
  EXPECT_EQ(result.leader_id, 7);
}

// --- Byzantine generals -------------------------------------------------------------

TEST(Byzantine, FourGeneralsToleranceOneTraitor) {
  for (int traitor : {1, 2, 3}) {
    for (int order : {0, 1}) {
      auto result = act::byzantine_om(4, {traitor}, 1, order);
      EXPECT_TRUE(result.agreement)
          << "traitor " << traitor << " order " << order;
      EXPECT_TRUE(result.validity)
          << "traitor " << traitor << " order " << order;
    }
  }
}

TEST(Byzantine, ThreeGeneralsCannotTolerateATraitor) {
  // The n > 3f bound: with 3 generals and a traitorous lieutenant, the
  // loyal lieutenant is deceived about the (loyal) commander's order.
  auto result = act::byzantine_om(3, {2}, 1, 1);
  EXPECT_FALSE(result.validity);
}

TEST(Byzantine, TraitorCommanderStillYieldsAgreement) {
  // IC1 must hold even when the commander is the traitor (IC2 is vacuous).
  for (int generals : {4, 7}) {
    auto result = act::byzantine_om(generals, {0}, 1, 1);
    EXPECT_TRUE(result.agreement) << generals;
    EXPECT_TRUE(result.validity) << generals;  // vacuously true
  }
}

TEST(Byzantine, SevenGeneralsTwoTraitorsNeedTwoRounds) {
  auto om2 = act::byzantine_om(7, {3, 5}, 2, 1);
  EXPECT_TRUE(om2.agreement);
  EXPECT_TRUE(om2.validity);
}

TEST(Byzantine, NoTraitorsTrivial) {
  auto result = act::byzantine_om(5, {}, 1, 1);
  EXPECT_TRUE(result.agreement);
  EXPECT_TRUE(result.validity);
  for (int d : result.loyal_decisions) EXPECT_EQ(d, 1);
}

TEST(Byzantine, MessageCountGrowsWithRounds) {
  auto om0 = act::byzantine_om(5, {1}, 0, 1);
  auto om1 = act::byzantine_om(5, {1}, 1, 1);
  auto om2 = act::byzantine_om(5, {1}, 2, 1);
  EXPECT_LT(om0.messages, om1.messages);
  EXPECT_LT(om1.messages, om2.messages);
  EXPECT_EQ(om0.messages, 4);  // commander to each lieutenant
}

// --- Parallel GC -----------------------------------------------------------------

TEST(ParallelGc, WriteBarrierNeverLosesLiveObjects) {
  // Property over many random graphs and schedules.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto result = act::parallel_gc(30, 60, 50, /*write_barrier=*/true,
                                   seed);
    EXPECT_FALSE(result.lost_live_object) << "seed " << seed;
  }
}

TEST(ParallelGc, WithoutBarrierSomeScheduleLosesAnObject) {
  int lost = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto result =
        act::parallel_gc(30, 60, 50, /*write_barrier=*/false, seed);
    if (result.lost_live_object) ++lost;
  }
  EXPECT_GT(lost, 0);
}

TEST(ParallelGc, AccountsForEveryObject) {
  auto result = act::parallel_gc(25, 50, 30, true, 7);
  EXPECT_GE(result.collected, 0);
  EXPECT_GE(result.live, 1);  // the root at least
  EXPECT_LE(result.live, 25);
}

// --- Gardeners --------------------------------------------------------------------

TEST(Gardeners, StaticRowsWaterEveryTreeExactlyOnce) {
  auto result =
      act::water_orchard(4, 61, act::GardenScheme::kStaticRows, 3);
  EXPECT_EQ(result.watered_exactly_once, 61);
  EXPECT_EQ(result.watered_twice_or_more, 0);
  EXPECT_EQ(result.skipped, 0);
}

TEST(Gardeners, GateNotesWaterEveryTreeExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto result =
        act::water_orchard(4, 50, act::GardenScheme::kGateNotes, seed);
    EXPECT_EQ(result.watered_exactly_once, 50) << seed;
    EXPECT_EQ(result.skipped, 0) << seed;
  }
}

TEST(Gardeners, NoCoordinationWastesWaterSometimes) {
  int wasteful_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto result = act::water_orchard(
        4, 64, act::GardenScheme::kNoCoordination, seed);
    EXPECT_EQ(result.skipped, 0);  // everyone visits everything
    if (result.watered_twice_or_more > 0) ++wasteful_runs;
  }
  EXPECT_GT(wasteful_runs, 2);
}

TEST(Gardeners, NoCoordinationRunIsReplayedBySeed) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto first = act::water_orchard(
        4, 64, act::GardenScheme::kNoCoordination, seed);
    auto again = act::water_orchard(
        4, 64, act::GardenScheme::kNoCoordination, seed);
    EXPECT_EQ(first.watered_exactly_once, again.watered_exactly_once) << seed;
    EXPECT_EQ(first.watered_twice_or_more, again.watered_twice_or_more)
        << seed;
    EXPECT_EQ(first.skipped, again.skipped) << seed;
  }
}

// --- Telephone chain ---------------------------------------------------------------

TEST(Telephone, TreeBeatsChain) {
  auto result = act::telephone_chain(16, 6, 0, 5);
  EXPECT_LT(result.tree_makespan, result.chain_makespan);
  EXPECT_EQ(result.chain_hops, 15);
  EXPECT_EQ(result.corrupted_words, 0);  // 0% garble
}

TEST(Telephone, GarblingAccumulatesAlongTheChain) {
  int total_corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto result = act::telephone_chain(20, 10, 10, seed);
    total_corrupted += result.corrupted_words;
  }
  EXPECT_GT(total_corrupted, 5);  // ~87% per word over 19 hops at 10%
}

TEST(Telephone, TwoStudentsDegenerate) {
  auto result = act::telephone_chain(2, 4, 0, 1);
  EXPECT_EQ(result.chain_hops, 1);
  EXPECT_GT(result.chain_makespan, 0);
}
