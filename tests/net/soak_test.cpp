// Heavy soak: ten thousand concurrent keep-alive connections against the
// reactor. The server runs as a real `pdcu serve --net-shards 2`
// subprocess (its own fd table — together with the client's 10k sockets
// a single process would brush the container's fd ceiling) and the load
// is driven by the epoll loadgen client in-process.
//
// Gated behind PDCU_HEAVY_TESTS=1: the run needs ~10k fds on each side
// and several seconds of wall clock, which is soak-lab territory, not
// per-commit CI. The CI workflow runs it in the dedicated soak job after
// raising `ulimit -n`.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/loadgen/schedule.hpp"

#ifndef PDCU_CLI_PATH
#define PDCU_CLI_PATH "./pdcu"
#endif

namespace loadgen = pdcu::loadgen;

namespace {

constexpr unsigned kConnections = 10000;

/// A `pdcu serve` subprocess with its stdout on a pipe; the listening
/// port is parsed from the machine-readable "listening port=" line.
struct ServeProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;

  bool start() {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(PDCU_CLI_PATH, PDCU_CLI_PATH, "serve", "--port", "0",
              "--net-shards", "2", "--max-connections", "12000",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    ::close(fds[1]);
    // Read the child's stdout line-wise until the port line appears.
    std::FILE* out = ::fdopen(fds[0], "r");
    if (out == nullptr) return false;
    char line[512];
    while (std::fgets(line, sizeof line, out) != nullptr) {
      if (std::sscanf(line, "listening port=%hu", &port) == 1) break;
    }
    std::fclose(out);  // the child keeps writing into a broken pipe later;
                       // it ignores SIGPIPE, so that is harmless
    return port != 0;
  }

  ~ServeProcess() {
    if (pid > 0) {
      ::kill(pid, SIGTERM);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

bool fd_budget_allows(rlim_t needed) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  return limit.rlim_cur >= needed;
}

}  // namespace

TEST(ReactorSoak, TenThousandConcurrentKeepAliveConnections) {
  if (std::getenv("PDCU_HEAVY_TESTS") == nullptr) {
    GTEST_SKIP() << "set PDCU_HEAVY_TESTS=1 to run the 10k-connection soak";
  }
  if (!fd_budget_allows(kConnections + 256)) {
    GTEST_SKIP() << "RLIMIT_NOFILE too low for " << kConnections
                 << " client sockets (raise ulimit -n)";
  }

  ServeProcess server;
  ASSERT_TRUE(server.start()) << "pdcu serve did not report a port";

  // Two requests per connection spread over the run; keep_alive_ratio 1.0
  // means no connection ever closes, so by the tail of the schedule all
  // 10k are open concurrently.
  loadgen::Options options;
  options.host = "127.0.0.1";
  options.port = server.port;
  options.connections = kConnections;
  options.timeout = std::chrono::milliseconds(10000);
  options.schedule.rate = 5000.0;
  options.schedule.duration_s = 4.0;
  options.schedule.keep_alive_ratio = 1.0;
  options.schedule.seed = 42;

  auto slugs = loadgen::fetch_catalog_slugs(options.host, options.port,
                                            options.timeout);
  ASSERT_TRUE(slugs.has_value()) << slugs.error().message;
  const auto schedule = loadgen::build_schedule(options.schedule,
                                                slugs.value());
  ASSERT_EQ(schedule.size(), 20000u);

  const loadgen::Result result = loadgen::run(options, schedule);

  EXPECT_EQ(result.peak_connections, kConnections);
  EXPECT_EQ(result.completed, result.scheduled)
      << "connect=" << result.connect_errors
      << " send=" << result.send_errors << " read=" << result.read_errors
      << " timeout=" << result.timeouts;
  EXPECT_EQ(result.errors_total(), 0u);
  EXPECT_EQ(result.status_2xx, result.completed);
}
