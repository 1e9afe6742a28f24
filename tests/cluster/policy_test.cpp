// The shared routing policy: candidate classification and ordering,
// capped exponential backoff, deadline-budget negotiation, and the attempt
// machine both the front tier and the sim drive.
#include "pdcu/cluster/policy.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cluster = pdcu::cluster;
using cluster::AttemptAction;
using cluster::AttemptLimits;
using cluster::AttemptMachine;
using cluster::AttemptOutcome;
using cluster::Candidate;
using cluster::CandidateClass;
using cluster::HashRing;
using cluster::ProbeState;
using std::chrono::milliseconds;

namespace {

HashRing three_ring() {
  HashRing ring(64);
  ring.add_node("replica-0");
  ring.add_node("replica-1");
  ring.add_node("replica-2");
  return ring;
}

std::vector<std::pair<std::string, ProbeState>> all_healthy() {
  return {{"replica-0", {}}, {"replica-1", {}}, {"replica-2", {}}};
}

std::vector<std::string> ids(const std::vector<Candidate>& plan) {
  std::vector<std::string> out;
  for (const auto& candidate : plan) out.push_back(candidate.id);
  return out;
}

constexpr std::string_view kKey = "/activities/x/";

/// A fleet-wide healthy plan for kKey: the owner first.
cluster::RoutePlan healthy_plan() {
  return cluster::plan_route(three_ring(), kKey, 3, all_healthy());
}

/// The front tier's defaults, under `budget`.
AttemptLimits limits(milliseconds budget) {
  return {budget, milliseconds(250), milliseconds(10), milliseconds(200)};
}

}  // namespace

TEST(PlanRoute, AllHealthyFollowsRingOrder) {
  const auto ring = three_ring();
  const auto plan =
      cluster::plan_route(ring, "/activities/x/", 3, all_healthy()).candidates;
  EXPECT_EQ(ids(plan), ring.route("/activities/x/", 3));
  for (const auto& candidate : plan) {
    EXPECT_EQ(candidate.cls, CandidateClass::kHealthy);
  }
}

TEST(PlanRoute, ProbeDeadOwnerSinksToLastResort) {
  const auto ring = three_ring();
  const std::string key = "/activities/x/";
  const auto owner = ring.owner(key);

  auto probes = all_healthy();
  for (auto& [id, state] : probes) {
    if (id == owner) state.alive = false;
  }
  const auto plan = cluster::plan_route(ring, key, 3, probes).candidates;
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.back().id, owner);
  EXPECT_EQ(plan.back().cls, CandidateClass::kDead);
  // The healthy survivors keep their relative ring order.
  auto expected = ring.route(key, 3);
  expected.erase(std::remove(expected.begin(), expected.end(), owner),
                 expected.end());
  EXPECT_EQ(ids(plan)[0], expected[0]);
  EXPECT_EQ(ids(plan)[1], expected[1]);
}

TEST(PlanRoute, DegradedOwnerYieldsToHealthyButBeatsDead) {
  const auto ring = three_ring();
  const std::string key = "/activities/x/";
  const auto route = ring.route(key, 3);

  auto probes = all_healthy();
  for (auto& [id, state] : probes) {
    if (id == route[0]) state.degraded = true;  // owner: last-known-good
    if (id == route[2]) state.alive = false;    // third node: dead
  }
  const auto plan = cluster::plan_route(ring, key, 3, probes).candidates;
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].id, route[1]);
  EXPECT_EQ(plan[0].cls, CandidateClass::kHealthy);
  EXPECT_EQ(plan[1].id, route[0]);
  EXPECT_EQ(plan[1].cls, CandidateClass::kDegraded);
  EXPECT_EQ(plan[2].id, route[2]);
  EXPECT_EQ(plan[2].cls, CandidateClass::kDead);
}

TEST(PlanRoute, WholeFleetDegradedStillRoutes) {
  const auto ring = three_ring();
  auto probes = all_healthy();
  for (auto& [id, state] : probes) state.degraded = true;
  const auto plan =
      cluster::plan_route(ring, "/activities/x/", 3, probes).candidates;
  ASSERT_EQ(plan.size(), 3u);
  // Degraded everywhere: original ring order survives the stable partition.
  EXPECT_EQ(ids(plan), ring.route("/activities/x/", 3));
}

TEST(Backoff, DoublesFromInitialAndCaps) {
  using cluster::backoff_for;
  EXPECT_EQ(backoff_for(0u, milliseconds(10), milliseconds(200)),
            milliseconds(10));
  EXPECT_EQ(backoff_for(1u, milliseconds(10), milliseconds(200)),
            milliseconds(20));
  EXPECT_EQ(backoff_for(3u, milliseconds(10), milliseconds(200)),
            milliseconds(80));
  EXPECT_EQ(backoff_for(5u, milliseconds(10), milliseconds(200)),
            milliseconds(200));
  EXPECT_EQ(backoff_for(30u, milliseconds(10), milliseconds(200)),
            milliseconds(200));
}

TEST(Backoff, ZeroInitialDisablesWaiting) {
  EXPECT_EQ(cluster::backoff_for(4u, milliseconds(0), milliseconds(200)),
            milliseconds(0));
}

TEST(EffectiveBudget, NoHeaderKeepsConfigured) {
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), nullptr),
            milliseconds(2000));
}

TEST(EffectiveBudget, ClientCanOnlyLowerTheBudget) {
  const std::string lower = "500";
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), &lower),
            milliseconds(500));
  const std::string higher = "9999";
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), &higher),
            milliseconds(2000));
}

TEST(EffectiveBudget, GarbageAndZeroAreIgnored) {
  const std::string garbage = "soon";
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), &garbage),
            milliseconds(2000));
  const std::string zero = "0";
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), &zero),
            milliseconds(2000));
  const std::string padded = "  250  ";
  EXPECT_EQ(cluster::effective_budget(milliseconds(2000), &padded),
            milliseconds(250));
}

TEST(PlanRoute, NamesTheOwnerAndShedsItOnlyWhenDegraded) {
  const auto ring = three_ring();
  const auto owner = ring.owner(kKey);
  const auto healthy = healthy_plan();
  EXPECT_EQ(healthy.owner, owner);
  EXPECT_FALSE(healthy.shed);

  auto probes = all_healthy();
  for (auto& [id, state] : probes) {
    if (id == owner) state.degraded = true;
  }
  EXPECT_TRUE(cluster::plan_route(ring, kKey, 3, probes).shed);
  for (auto& [id, state] : probes) {
    if (id == owner) state.alive = false;
  }
  EXPECT_FALSE(cluster::plan_route(ring, kKey, 3, probes).shed)
      << "a dead owner failed; it was not shed";
}

TEST(PlanRoute, CandidatesIndexTheProbeTable) {
  const auto probes = all_healthy();
  for (const auto& candidate : healthy_plan().candidates) {
    EXPECT_EQ(probes[candidate.replica].first, candidate.id);
  }
}

TEST(AttemptMachine, FirstTryIsTheOwnerWithinTheBudget) {
  const auto plan = healthy_plan();
  AttemptMachine roomy(plan, limits(milliseconds(2000)));
  const AttemptAction first = roomy.next(milliseconds(0));
  ASSERT_EQ(first.kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(first.candidate->id, plan.owner);
  EXPECT_EQ(first.deadline, milliseconds(250));
  EXPECT_EQ(first.remaining, milliseconds(2000));

  // A budget below the attempt timeout bounds the attempt itself.
  AttemptMachine tight(plan, limits(milliseconds(100)));
  const AttemptAction clamped = tight.next(milliseconds(0));
  ASSERT_EQ(clamped.kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(clamped.deadline, milliseconds(100));
  EXPECT_EQ(clamped.remaining, milliseconds(100));
}

TEST(AttemptMachine, RefusedBacksOffThenTriesTheNextCandidate) {
  const auto plan = healthy_plan();
  AttemptMachine machine(plan, limits(milliseconds(2000)));
  ASSERT_EQ(machine.next(milliseconds(0)).kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(machine.report(AttemptOutcome::kRefused), false)
      << "a refused connect marks a live replica dead";

  const AttemptAction wait = machine.next(milliseconds(1));
  ASSERT_EQ(wait.kind, AttemptAction::Kind::kWait);
  EXPECT_EQ(wait.wait, milliseconds(10));
  const AttemptAction second = machine.next(milliseconds(11));
  ASSERT_EQ(second.kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(second.candidate->id, plan.candidates[1].id);
  EXPECT_EQ(second.remaining, milliseconds(1989));

  EXPECT_EQ(machine.tally().attempts, 2u);
  EXPECT_EQ(machine.tally().retries, 1u);
  EXPECT_EQ(machine.tally().upstream_errors, 1u);
  EXPECT_FALSE(machine.tally().exhausted);
}

TEST(AttemptMachine, BudgetRunsOutMidBackoff) {
  AttemptMachine machine(healthy_plan(), limits(milliseconds(5)));
  ASSERT_EQ(machine.next(milliseconds(0)).kind, AttemptAction::Kind::kTry);
  machine.report(AttemptOutcome::kConnectTimeout);

  // The 10 ms backoff is clamped to the 4 ms left, and then it is over.
  const AttemptAction wait = machine.next(milliseconds(1));
  ASSERT_EQ(wait.kind, AttemptAction::Kind::kWait);
  EXPECT_EQ(wait.wait, milliseconds(4));
  EXPECT_EQ(machine.next(milliseconds(5)).kind,
            AttemptAction::Kind::kGiveUp);
  EXPECT_EQ(machine.tally().attempts, 1u);
  EXPECT_EQ(machine.tally().retries, 1u);
  EXPECT_TRUE(machine.tally().exhausted);
}

TEST(AttemptMachine, ServerErrorMovesOnWithoutMarkingDead) {
  const auto plan = healthy_plan();
  AttemptMachine machine(plan, limits(milliseconds(2000)));
  ASSERT_EQ(machine.next(milliseconds(0)).kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(machine.report(AttemptOutcome::kServerError), std::nullopt);
  ASSERT_EQ(machine.next(milliseconds(3)).kind, AttemptAction::Kind::kWait);
  const AttemptAction second = machine.next(milliseconds(13));
  ASSERT_EQ(second.kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(second.candidate->id, plan.candidates[1].id);
  EXPECT_EQ(machine.tally().upstream_errors, 1u);
}

TEST(AttemptMachine, ServedByANonOwnerIsAFailover) {
  AttemptMachine machine(healthy_plan(), limits(milliseconds(2000)));
  machine.next(milliseconds(0));
  machine.report(AttemptOutcome::kTimedOut);
  machine.next(milliseconds(250));
  ASSERT_EQ(machine.next(milliseconds(260)).kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(machine.report(AttemptOutcome::kServed), std::nullopt);
  EXPECT_TRUE(machine.tally().failover);
  EXPECT_FALSE(machine.tally().exhausted);

  AttemptMachine owner_served(healthy_plan(), limits(milliseconds(2000)));
  owner_served.next(milliseconds(0));
  owner_served.report(AttemptOutcome::kServed);
  EXPECT_FALSE(owner_served.tally().failover);
  EXPECT_EQ(owner_served.next(milliseconds(2)).kind,
            AttemptAction::Kind::kGiveUp);
  EXPECT_FALSE(owner_served.tally().exhausted);
}

TEST(AttemptMachine, ServedMarksAliveButNeverClearsDegraded) {
  // Every probe failed, and the owner's last good probe said degraded: the
  // whole plan is dead, in ring order, owner first.
  const auto ring = three_ring();
  auto probes = all_healthy();
  for (auto& [id, state] : probes) {
    state.alive = false;
    state.degraded = id == ring.owner(kKey);
  }
  AttemptMachine machine(cluster::plan_route(ring, kKey, 3, probes),
                         limits(milliseconds(2000)));
  const AttemptAction first = machine.next(milliseconds(0));
  ASSERT_EQ(first.kind, AttemptAction::Kind::kTry);
  ASSERT_EQ(first.candidate->id, ring.owner(kKey));
  const auto alive = machine.report(AttemptOutcome::kServed);
  ASSERT_EQ(alive, true);

  probes[first.candidate->replica].second.alive = *alive;
  const auto replanned = cluster::plan_route(ring, kKey, 3, probes);
  EXPECT_EQ(replanned.candidates.front().id, ring.owner(kKey));
  EXPECT_EQ(replanned.candidates.front().cls, CandidateClass::kDegraded);
}

TEST(AttemptMachine, LocalFailureEndsTheWalkWithoutChargingTheReplica) {
  AttemptMachine machine(healthy_plan(), limits(milliseconds(2000)));
  ASSERT_EQ(machine.next(milliseconds(0)).kind, AttemptAction::Kind::kTry);
  EXPECT_EQ(machine.report(AttemptOutcome::kLocal), std::nullopt)
      << "a descriptor shortage here says nothing about the replica";
  EXPECT_EQ(machine.next(milliseconds(1)).kind, AttemptAction::Kind::kGiveUp);
  EXPECT_EQ(machine.tally().attempts, 1u);
  EXPECT_EQ(machine.tally().retries, 0u);
  EXPECT_EQ(machine.tally().upstream_errors, 0u);
  EXPECT_TRUE(machine.tally().exhausted);
}
