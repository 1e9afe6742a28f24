// Real-process chaos: the fleet spawns actual `pdcu serve` subprocesses
// (the binary under test, via PDCU_CLI_PATH) and the front tier proxies
// onto them over real localhost sockets. The light tests run per-commit
// and verify the acceptance scenario once against real processes; the
// PDCU_HEAVY_TESTS soak keeps a 3-replica fleet under sustained loadgen
// traffic while a replica is SIGKILLed and restarted.
#include "pdcu/cluster/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/cluster/front.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/loadgen.hpp"

#ifndef PDCU_CLI_PATH
#define PDCU_CLI_PATH "./pdcu"
#endif

namespace cluster = pdcu::cluster;
namespace server = pdcu::server;
using std::chrono::milliseconds;

namespace {

cluster::FleetOptions fleet_options(unsigned replicas) {
  cluster::FleetOptions options;
  options.cli_path = PDCU_CLI_PATH;
  options.replicas = replicas;
  return options;
}

cluster::FrontOptions manual_front() {
  cluster::FrontOptions options;
  options.probe_interval = milliseconds(0);
  options.backoff_initial = milliseconds(1);
  options.backoff_cap = milliseconds(5);
  return options;
}

server::Request get_request(const std::string& target) {
  server::Request request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

std::vector<std::string> activity_paths() {
  std::vector<std::string> paths;
  for (const auto& activity :
       pdcu::core::Repository::builtin().activities()) {
    paths.push_back("/activities/" + activity.slug + "/");
  }
  return paths;
}

}  // namespace

TEST(Fleet, SpawnsReplicasAndReportsTheirPorts) {
  cluster::Fleet fleet(fleet_options(2));
  const auto status = fleet.start();
  ASSERT_TRUE(status.has_value()) << status.error().message;
  ASSERT_EQ(fleet.size(), 2u);
  const auto targets = fleet.targets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].id, "replica-0");
  EXPECT_NE(targets[0].port, 0);
  EXPECT_NE(targets[1].port, 0);
  EXPECT_NE(targets[0].port, targets[1].port);
  fleet.stop_all();
}

// The acceptance scenario, verified against real localhost processes: a
// SIGKILLed replica under front-tier routing yields zero client-visible
// 5xx, and a restarted replica rejoins the rotation.
TEST(Fleet, SigkilledReplicaIsAbsorbedAndRejoinsAfterRestart) {
  cluster::Fleet fleet(fleet_options(3));
  const auto status = fleet.start();
  ASSERT_TRUE(status.has_value()) << status.error().message;
  cluster::FrontTier front(manual_front(), fleet.targets());
  front.probe_once();

  const auto paths = activity_paths();
  int worst_status = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    worst_status = std::max(
        worst_status, front.proxy(get_request(paths[i % paths.size()])).status);
  }
  ASSERT_EQ(worst_status, 200);

  // The no-goodbye death: SIGKILL, no draining, sockets vanish.
  fleet.kill_replica(0);
  for (std::size_t i = 0; i < 60; ++i) {
    worst_status = std::max(
        worst_status, front.proxy(get_request(paths[i % paths.size()])).status);
  }
  EXPECT_EQ(worst_status, 200)
      << "a SIGKILLed replica leaked an error through the front tier";
  EXPECT_GT(front.metrics().failovers(), 0u);

  // Restart and confirm the replica serves again (the front probes it
  // back to life; its port may have changed, so re-probe the new target
  // list via a fresh front).
  const auto restarted = fleet.restart_replica(0);
  ASSERT_TRUE(restarted.has_value()) << restarted.error().message;
  cluster::FrontTier healed_front(manual_front(), fleet.targets());
  healed_front.probe_once();
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(healed_front.proxy(get_request(paths[i % paths.size()])).status,
              200);
  }
  fleet.stop_all();
}

// Heavy soak (PDCU_HEAVY_TESTS=1): a 3-replica fleet under sustained
// open-loop load while one replica is killed and restarted mid-run. The
// front runs as a real socket server and loadgen drives it like any
// other HTTP target.
TEST(Fleet, SoakSurvivesKillAndRestartUnderLoad) {
  if (std::getenv("PDCU_HEAVY_TESTS") == nullptr) {
    GTEST_SKIP() << "set PDCU_HEAVY_TESTS=1 to run the fleet soak";
  }
  cluster::Fleet fleet(fleet_options(3));
  const auto status = fleet.start();
  ASSERT_TRUE(status.has_value()) << status.error().message;
  cluster::FrontOptions options;  // real probing this time
  options.probe_interval = milliseconds(100);
  cluster::FrontTier front(options, fleet.targets());
  const auto started = front.start();
  ASSERT_TRUE(started.has_value()) << started.error().message;

  std::atomic<bool> chaos_done{false};
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    fleet.kill_replica(1);
    std::this_thread::sleep_for(std::chrono::seconds(2));
    const auto restarted = fleet.restart_replica(1);
    EXPECT_TRUE(restarted.has_value());
    chaos_done.store(true);
  });

  pdcu::loadgen::Options load;
  load.port = front.port();
  load.connections = 8;
  load.schedule.rate = 200.0;
  load.schedule.duration_s = 8.0;
  load.schedule.seed = 7;
  const auto result = pdcu::loadgen::run_against(load);
  chaos.join();
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_TRUE(chaos_done.load());
  EXPECT_TRUE(result.value().fully_accounted());
  EXPECT_GT(result.value().completed, 0u);
  // The front absorbs the kill: no 5xx reaches the load generator.
  EXPECT_EQ(result.value().status_5xx, 0u)
      << "killed replica leaked 5xx through the front during the soak";
  front.stop();
  fleet.stop_all();
}
