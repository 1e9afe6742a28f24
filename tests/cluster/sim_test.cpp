// The deterministic virtual-time cluster simulation: bit-identical replay
// from a seed, the named scenarios' pinned checksums, the two chaos
// acceptance scenarios — a killed replica and a degraded (failed-reload)
// replica — absorbed with zero client-visible errors, and the budget and
// liveness rules it shares with the front tier through the attempt
// machine.
#include "pdcu/cluster/sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace cluster = pdcu::cluster;
using cluster::SimEvent;
using cluster::SimOptions;

namespace {

SimOptions base_options() {
  SimOptions options;
  options.replicas = 3;
  options.seed = 42;
  options.duration_ms = 10'000;
  options.requests = 400;
  return options;
}

}  // namespace

TEST(ClusterSim, SameSeedReplaysBitIdentically) {
  const auto options = base_options();
  const auto a = cluster::run_sim(options);
  const auto b = cluster::run_sim(options);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.max_latency_ms, b.max_latency_ms);
}

TEST(ClusterSim, DifferentSeedDiverges) {
  auto options = base_options();
  const auto a = cluster::run_sim(options);
  options.seed = 43;
  const auto b = cluster::run_sim(options);
  EXPECT_NE(a.checksum, b.checksum);
}

TEST(ClusterSim, QuietFleetServesEverythingFirstTry) {
  const auto report = cluster::run_sim(base_options());
  EXPECT_EQ(report.requests_total, 400u);
  EXPECT_EQ(report.ok, 400u);
  EXPECT_EQ(report.client_errors, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.failovers, 0u);
  EXPECT_EQ(report.shed, 0u);
}

TEST(ClusterSim, KilledReplicaFailsOverWithZeroClientErrors) {
  auto options = base_options();
  options.events.push_back({3'000, SimEvent::Kind::kKill, 0});
  options.events.push_back({7'000, SimEvent::Kind::kRestart, 0});
  const auto report = cluster::run_sim(options);

  EXPECT_EQ(report.requests_total, 400u);
  EXPECT_EQ(report.client_errors, 0u)
      << "a SIGKILLed replica must be absorbed by front-tier retry";
  EXPECT_EQ(report.ok, 400u);
  // Requests owned by replica-0 during the outage were served elsewhere.
  EXPECT_GT(report.failovers, 0u);
}

TEST(ClusterSim, DegradedReplicaIsShedViaProbes) {
  auto options = base_options();
  options.events.push_back({3'000, SimEvent::Kind::kDegrade, 0});
  options.events.push_back({7'000, SimEvent::Kind::kRecover, 0});
  const auto report = cluster::run_sim(options);

  EXPECT_EQ(report.client_errors, 0u);
  EXPECT_EQ(report.ok, 400u);
  // The degraded owner keeps serving last-known-good, but its /healthz
  // says so, and the next probe lets the front route its keys to healthy
  // replicas instead.
  EXPECT_GT(report.shed, 0u);
}

TEST(ClusterSim, PartitionedLinkBurnsTimeoutThenFailsOver) {
  auto options = base_options();
  // Replica 0 unreachable from the front for the middle of the run; the
  // replica itself is alive (no kill), only the link drops. The window
  // opens just AFTER the 3000 ms probe tick, so requests arriving before
  // the next probe still believe replica-0 is healthy and must discover
  // the dead link the expensive way — a burned attempt timeout.
  options.fault.partition({0}, {static_cast<int>(options.front_node())},
                          3'050, 7'000);
  const auto report = cluster::run_sim(options);

  EXPECT_EQ(report.client_errors, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.failovers, 0u);
  // At least one request paid a dropped-attempt timeout before failing
  // over — the latency tail records the partition.
  EXPECT_GE(report.max_latency_ms, options.attempt_timeout_ms);
  // The dropped link is a connect timeout, so the first burned attempt
  // marks replica-0 dead and later requests walk past it until a probe
  // finds the link healed.
  EXPECT_EQ(report.upstream_errors, 1u);
}

TEST(ClusterSim, DroppedLinkSpendsNoMoreThanTheBudget) {
  auto options = base_options();
  options.budget_ms = 100;
  options.fault.partition({0}, {static_cast<int>(options.front_node())},
                          3'050, 7'000);
  const auto report = cluster::run_sim(options);
  EXPECT_GT(report.upstream_errors, 0u);
  EXPECT_LE(report.max_latency_ms, 100u);
}

TEST(ClusterSim, BackoffSpendsNoMoreThanTheBudget) {
  auto options = base_options();
  options.budget_ms = 15;
  for (unsigned i = 0; i < options.replicas; ++i) {
    options.events.push_back({1'000, SimEvent::Kind::kKill, i});
  }
  const auto report = cluster::run_sim(options);
  EXPECT_GT(report.client_errors, 0u);
  EXPECT_LE(report.max_latency_ms, 15u);
}

// The seeded twin of FrontTier.KilledReplicaIsAbsorbedWithZeroClientVisible5xx:
// no prober, so the attempts alone must route around the corpse, on every
// seed.
TEST(ClusterSim, KilledReplicaIsAbsorbedByAttemptsAlone) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto options = base_options();
    options.seed = seed;
    options.requests = 120;
    options.probe_interval_ms = 0;
    options.events.push_back({options.duration_ms / 4,
                              SimEvent::Kind::kKill, 0});
    const auto report = cluster::run_sim(options);
    EXPECT_EQ(report.client_errors, 0u) << "seed " << seed;
    EXPECT_EQ(report.ok, 120u) << "seed " << seed;
    EXPECT_GT(report.failovers, 0u) << "seed " << seed;
  }
}

// `pdcu cluster --sim --scenario S --seed N` with the default options. A
// change that moves one of these changed what the chaos report says about
// the shipped policy, and must say why.
TEST(ClusterSim, NamedScenariosKeepTheirChecksums) {
  struct Pinned {
    const char* scenario;
    std::uint64_t seed;
    std::uint64_t checksum;
  };
  const Pinned pinned[] = {
      {"none", 1, 16219650409847724377ULL},
      {"none", 42, 6763280844557416407ULL},
      {"kill-one", 1, 10123015071772490880ULL},
      {"kill-one", 42, 9044830549846970058ULL},
      {"degrade-one", 1, 2359751281965694223ULL},
      {"degrade-one", 42, 2427103939621014153ULL},
      {"partition", 1, 16169092182295063693ULL},
      {"partition", 42, 2295305614077863251ULL},
  };
  for (const Pinned& pin : pinned) {
    SimOptions options;
    options.seed = pin.seed;
    ASSERT_TRUE(cluster::apply_scenario(pin.scenario, options));
    const auto report = cluster::run_sim(options);
    EXPECT_EQ(report.checksum, pin.checksum)
        << pin.scenario << " seed " << pin.seed;
    EXPECT_EQ(report.client_errors, 0u) << pin.scenario;
  }
  SimOptions options;
  EXPECT_FALSE(cluster::apply_scenario("meteor", options));
  EXPECT_TRUE(options.events.empty());
}

TEST(ClusterSim, WholeFleetDeadYieldsClientErrors) {
  auto options = base_options();
  for (unsigned i = 0; i < options.replicas; ++i) {
    options.events.push_back({1'000, SimEvent::Kind::kKill, i});
  }
  const auto report = cluster::run_sim(options);
  EXPECT_GT(report.client_errors, 0u);
  EXPECT_EQ(report.ok + report.client_errors, report.requests_total);
}

TEST(ClusterSim, ChecksumCoversTheChaosTimeline) {
  // The same seed with and without a kill event must diverge — the
  // checksum covers injected faults, not just request arrivals.
  auto options = base_options();
  const auto quiet = cluster::run_sim(options);
  options.events.push_back({3'000, SimEvent::Kind::kKill, 0});
  const auto chaotic = cluster::run_sim(options);
  EXPECT_NE(quiet.checksum, chaotic.checksum);
}

TEST(ClusterSim, ReportRendersJson) {
  const auto report = cluster::run_sim(base_options());
  const auto json = report.render_json();
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"checksum\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":400"), std::string::npos);
}
