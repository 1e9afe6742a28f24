// The front tier against real in-process replicas: consistent-hash
// routing, the two chaos acceptance scenarios (killed replica absorbed
// with zero client-visible 5xx; degraded replica shed via probes), the
// sampled ring-move counter, the half-open-connection bound, and
// deadline-budget propagation.
#include "pdcu/cluster/front.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/cluster/upstream.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/obs/lint.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/strings.hpp"

namespace cluster = pdcu::cluster;
namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace strs = pdcu::strings;
using std::chrono::milliseconds;

namespace {

/// One in-process replica: a real HttpServer over the builtin curation,
/// with health wired exactly like `pdcu serve`.
struct Replica {
  Replica() {
    const auto& repo = core::Repository::builtin();
    server::Router router(site::build_site(repo), repo);
    router.set_health(&health);
    server::ServerOptions options;
    options.port = 0;
    instance = std::make_unique<server::HttpServer>(std::move(router),
                                                    std::move(options));
    const auto status = instance->start();
    EXPECT_TRUE(status.has_value())
        << (status ? "" : status.error().message);
  }

  std::uint16_t port() const { return instance->port(); }
  void kill() { instance->stop(); }

  server::HealthTracker health;
  std::unique_ptr<server::HttpServer> instance;
};

struct Fleet3 {
  Fleet3() {
    for (int i = 0; i < 3; ++i) replicas.push_back(std::make_unique<Replica>());
  }
  std::vector<cluster::ReplicaTarget> targets() const {
    std::vector<cluster::ReplicaTarget> out;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      out.push_back({"replica-" + std::to_string(i), "127.0.0.1",
                     replicas[i]->port()});
    }
    return out;
  }
  std::vector<std::unique_ptr<Replica>> replicas;
};

/// Deterministic test options: no background prober.
cluster::FrontOptions manual_options() {
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

/// Paths into the builtin curation, cycled by the load loops.
std::vector<std::string> activity_paths() {
  std::vector<std::string> paths;
  for (const auto& activity : core::Repository::builtin().activities()) {
    paths.push_back("/activities/" + activity.slug + "/");
  }
  return paths;
}

/// A path whose ring owner (64 vnodes, replicas 0..2) is `owner` — the
/// same ring the front builds, so the choice is stable.
std::string path_owned_by(const std::string& owner) {
  cluster::HashRing ring(64);
  for (int i = 0; i < 3; ++i) ring.add_node("replica-" + std::to_string(i));
  for (const auto& path : activity_paths()) {
    if (ring.owner(path) == owner) return path;
  }
  ADD_FAILURE() << "no builtin path hashes to " << owner;
  return "/";
}

/// A listening socket that accepts nothing: with backlog 1 already
/// consumed by one parked connection, further SYNs are dropped and a
/// connect attempt hangs until *its* timeout — the half-open peer case.
struct UnresponsiveListener {
  UnresponsiveListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    ::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address);
    ::listen(fd, 1);
    socklen_t length = sizeof address;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
    port = ntohs(address.sin_port);
    // Park connections until the accept queue is full so later handshakes
    // stall in SYN_SENT instead of completing.
    for (int i = 0; i < 4; ++i) {
      const int parked = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      ::connect(parked, reinterpret_cast<sockaddr*>(&address),
                sizeof address);
      parked_fds.push_back(parked);
    }
    // Give the kernel a beat to finish the handshakes that do fit.
    std::this_thread::sleep_for(milliseconds(50));
  }
  ~UnresponsiveListener() {
    for (const int parked : parked_fds) ::close(parked);
    ::close(fd);
  }
  int fd = -1;
  std::uint16_t port = 0;
  std::vector<int> parked_fds;
};

/// Accepts connections and then never answers — a peer that completes the
/// handshake but goes silent (read-timeout case).
struct SilentAccepter {
  SilentAccepter() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    ::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address);
    ::listen(fd, 16);
    socklen_t length = sizeof address;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
    port = ntohs(address.sin_port);
    accepter = std::thread([this] {
      while (!done.load()) {
        const int client = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (client >= 0) {
          accepted.push_back(client);
        } else {
          std::this_thread::sleep_for(milliseconds(5));
        }
      }
    });
  }
  ~SilentAccepter() {
    done.store(true);
    ::shutdown(fd, SHUT_RDWR);
    accepter.join();
    for (const int client : accepted) ::close(client);
    ::close(fd);
  }
  int fd = -1;
  std::uint16_t port = 0;
  std::atomic<bool> done{false};
  std::vector<int> accepted;
  std::thread accepter;
};

}  // namespace

TEST(FrontTier, RoutesToTheRingOwnerAndTagsTheUpstream) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());

  for (const auto& path :
       {path_owned_by("replica-0"), path_owned_by("replica-1"),
        path_owned_by("replica-2")}) {
    const auto response = front.proxy(get_request(path));
    EXPECT_EQ(response.status, 200) << path;
  }
  // With the whole fleet healthy, every request lands on its owner.
  const auto owned = path_owned_by("replica-1");
  const auto response = front.proxy(get_request(owned));
  const auto* upstream = response.header("X-Pdcu-Upstream");
  ASSERT_NE(upstream, nullptr);
  EXPECT_EQ(*upstream, "replica-1");
  EXPECT_EQ(front.metrics().failovers(), 0u);
}

TEST(FrontTier, OwnsItsOwnSurfaceUnderFrontPrefix) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  front.probe_once();

  const auto healthz = front.proxy(get_request("/_front/healthz"));
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"routable\":3"), std::string::npos);

  const auto metrics = front.proxy(get_request("/_front/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("pdcu_cluster_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("pdcu_cluster_routable_nodes 3"),
            std::string::npos);
  ASSERT_NE(metrics.header("content-type"), nullptr);
  EXPECT_EQ(*metrics.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const auto problems = pdcu::obs::lint_exposition(metrics.body);
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");
}

TEST(FrontTier, NonGetIsRejectedWithoutBurningUpstreamAttempts) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  auto request = get_request("/");
  request.method = "POST";
  EXPECT_EQ(front.proxy(request).status, 405);
}

// Chaos acceptance: a replica dies under load; after front-tier retry the
// clients see zero 5xx. The kill lands before a fixed request index, so
// the 90 requests after it (which cycle every builtin path) always meet
// the corpse.
TEST(FrontTier, KilledReplicaIsAbsorbedWithZeroClientVisible5xx) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  front.probe_once();

  const auto paths = activity_paths();
  int worst_status = 0;
  for (std::size_t i = 0; i < 120; ++i) {
    // Kill replica-0 mid-run, without warning the front.
    if (i == 30) fleet.replicas[0]->kill();
    worst_status = std::max(
        worst_status, front.proxy(get_request(paths[i % paths.size()])).status);
  }

  EXPECT_LT(worst_status, 500)
      << "a killed replica leaked a 5xx through the front tier";
  EXPECT_GT(front.metrics().failovers(), 0u);
}

TEST(FrontTier, DeadOwnerKeysFailOverAndProbeSeesTheCorpse) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  const auto owned = path_owned_by("replica-0");
  fleet.replicas[0]->kill();

  const auto response = front.proxy(get_request(owned));
  EXPECT_EQ(response.status, 200);
  const auto* upstream = response.header("X-Pdcu-Upstream");
  ASSERT_NE(upstream, nullptr);
  EXPECT_NE(*upstream, "replica-0");
  EXPECT_GT(front.metrics().failovers(), 0u);

  front.probe_once();
  const auto healthz = front.proxy(get_request("/_front/healthz"));
  EXPECT_NE(healthz.body.find("\"routable\":2"), std::string::npos);
}

// Chaos acceptance: a replica whose rebuild failed keeps serving
// last-known-good, its /healthz answers "degraded", and after the next
// probe the front sheds its keys to healthy replicas.
TEST(FrontTier, DegradedReplicaIsShedViaProbes) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  front.probe_once();

  // replica-0's reload fails; it stays up, serving epoch-1 content.
  fleet.replicas[0]->health.record_reload_failure("poisoned content");
  ASSERT_TRUE(fleet.replicas[0]->health.degraded());
  front.probe_once();

  const auto owned = path_owned_by("replica-0");
  const auto response = front.proxy(get_request(owned));
  EXPECT_EQ(response.status, 200);
  const auto* upstream = response.header("X-Pdcu-Upstream");
  ASSERT_NE(upstream, nullptr);
  EXPECT_NE(*upstream, "replica-0") << "degraded owner was not shed";
  EXPECT_GT(front.metrics().shed(), 0u);

  // Recovery: the reload succeeds, and after the next probe the owner
  // serves its own keys again.
  fleet.replicas[0]->health.record_reload_success();
  front.probe_once();
  const auto healed = front.proxy(get_request(owned));
  const auto* healed_upstream = healed.header("X-Pdcu-Upstream");
  ASSERT_NE(healed_upstream, nullptr);
  EXPECT_EQ(*healed_upstream, "replica-0");
}

// pdcu_cluster_ring_moves_total counts sampled keys whose first planned
// candidate changed: a degraded replica's keys move to their successors,
// and move back when it heals.
TEST(FrontTier, ProbesCountRingMovesBothWays) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  front.probe_once();
  EXPECT_EQ(front.metrics().ring_moves(), 0u);

  fleet.replicas[1]->health.record_reload_failure("poisoned content");
  front.probe_once();
  const std::uint64_t shed_moves = front.metrics().ring_moves();
  EXPECT_GT(shed_moves, 0u);
  EXPECT_EQ(front.metrics().routable(), 2u);

  fleet.replicas[1]->health.record_reload_success();
  front.probe_once();
  // Every sampled key that moved off replica-1 moves back onto it.
  EXPECT_EQ(front.metrics().ring_moves(), 2 * shed_moves);
  EXPECT_EQ(front.metrics().routable(), 3u);
}

// Satellite: a SYN-reachable but never-completing peer costs one bounded
// connect attempt, not a hung proxy worker.
TEST(FrontTier, HalfOpenPeerHitsConnectTimeoutNotAHang) {
  UnresponsiveListener half_open;
  cluster::UpstreamPool pool;
  const auto start = std::chrono::steady_clock::now();
  const auto reply =
      pool.fetch("127.0.0.1", half_open.port, "/", {}, milliseconds(150),
                 milliseconds(1000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "cluster.upstream.connect_timeout");
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(FrontTier, SilentPeerHitsTheDeadlineNotAHang) {
  SilentAccepter silent;
  cluster::UpstreamPool pool;
  const auto start = std::chrono::steady_clock::now();
  const auto reply = pool.fetch("127.0.0.1", silent.port, "/", {},
                                milliseconds(150), milliseconds(300));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().code, "cluster.upstream.timeout");
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// A pooled socket the replica closed while it sat idle costs one fresh
// connect, not an error: the retry happens inside the fetch.
TEST(FrontTier, StalePooledSocketIsRetriedOnceNotCharged) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address);
  ::listen(listener, 4);
  socklen_t length = sizeof address;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length);
  const std::uint16_t port = ntohs(address.sin_port);

  // The replica answers each connection with one keep-alive reply. It
  // closes the first only once the pool has parked it.
  std::promise<void> parked;
  std::promise<void> dropped;
  std::thread replica([&] {
    const auto answer = [](int client) {
      std::string request;
      char chunk[1024];
      while (request.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(client, chunk, sizeof chunk, 0);
        if (n <= 0) return;
        request.append(chunk, static_cast<std::size_t>(n));
      }
      const std::string reply =
          "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
      ::send(client, reply.data(), reply.size(), MSG_NOSIGNAL);
    };
    const int first = ::accept(listener, nullptr, nullptr);
    answer(first);
    parked.get_future().wait();
    ::close(first);
    dropped.set_value();
    const int second = ::accept(listener, nullptr, nullptr);
    answer(second);
    if (second >= 0) ::close(second);
  });

  cluster::UpstreamPool pool;
  const auto first = pool.fetch("127.0.0.1", port, "/", {}, milliseconds(250),
                                milliseconds(1000));
  parked.set_value();
  dropped.get_future().wait();
  const auto second = pool.fetch("127.0.0.1", port, "/", {},
                                 milliseconds(250), milliseconds(1000));
  ::shutdown(listener, SHUT_RDWR);
  replica.join();
  ::close(listener);

  ASSERT_TRUE(first.has_value()) << first.error().code;
  ASSERT_TRUE(second.has_value()) << second.error().code;
  EXPECT_EQ(second.value().status, 200);
  EXPECT_EQ(second.value().body, "ok");
}

// A front out of descriptors cannot open an upstream socket. That is a
// failure of its own: the request gets a 503, and neither the attempt nor
// the probe marks a replica dead or charges it an upstream error.
TEST(FrontTier, DescriptorShortageMarksNoReplicaDead) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());

  // Cap the table a few dozen past the lowest free descriptor, then take
  // every free one below the cap.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int base = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(base, 0);
  rlimit low = saved;
  low.rlim_cur =
      std::min<rlim_t>(saved.rlim_cur, static_cast<rlim_t>(base) + 32);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> dups;
  int dup_fd = -1;
  while ((dup_fd = ::dup(base)) >= 0) dups.push_back(dup_fd);
  const int dup_errno = errno;

  const auto response = front.proxy(get_request(path_owned_by("replica-0")));
  front.probe_once();

  for (const int fd : dups) ::close(fd);
  ::close(base);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_EQ(dup_errno, EMFILE);
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(front.metrics().upstream_errors(), 0u);
  EXPECT_EQ(front.metrics().routable(), 3u);
  // With descriptors back, the owner serves its own key.
  const auto healed = front.proxy(get_request(path_owned_by("replica-0")));
  EXPECT_EQ(healed.status, 200);
  const auto* upstream = healed.header("X-Pdcu-Upstream");
  ASSERT_NE(upstream, nullptr);
  EXPECT_EQ(*upstream, "replica-0");
}

TEST(FrontTier, HalfOpenOwnerFailsOverWithinTheBudget) {
  // replica-silent owns some keys but never answers its SYNs; the front
  // must burn one connect timeout and serve from the real replica.
  UnresponsiveListener half_open;
  Replica real;
  auto options = manual_options();
  options.connect_timeout = milliseconds(150);
  cluster::FrontTier front(
      options, {{"replica-silent", "127.0.0.1", half_open.port},
                {"replica-real", "127.0.0.1", real.port()}});

  cluster::HashRing ring(64);
  ring.add_node("replica-silent");
  ring.add_node("replica-real");
  std::string owned;
  for (const auto& path : activity_paths()) {
    if (ring.owner(path) == "replica-silent") {
      owned = path;
      break;
    }
  }
  ASSERT_FALSE(owned.empty());

  const auto start = std::chrono::steady_clock::now();
  const auto response = front.proxy(get_request(owned));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status, 200);
  const auto* upstream = response.header("X-Pdcu-Upstream");
  ASSERT_NE(upstream, nullptr);
  EXPECT_EQ(*upstream, "replica-real");
  EXPECT_LT(elapsed, std::chrono::seconds(3));
}

TEST(FrontTier, ClientDeadlineHeaderLowersTheBudget) {
  Fleet3 fleet;
  auto options = manual_options();
  cluster::FrontTier front(options, fleet.targets());

  // A microscopic client budget exhausts before any attempt can finish.
  auto request = get_request(path_owned_by("replica-0"));
  request.headers.push_back({"X-Pdcu-Deadline", "0"});
  EXPECT_EQ(front.proxy(request).status, 200)
      << "zero must be ignored, not treated as an expired budget";

  fleet.replicas[0]->kill();
  fleet.replicas[1]->kill();
  fleet.replicas[2]->kill();
  auto doomed = get_request("/");
  doomed.headers.push_back({"X-Pdcu-Deadline", "100"});
  const auto start = std::chrono::steady_clock::now();
  const auto response = front.proxy(doomed);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status, 503);
  // The whole fleet is dead; the walk must respect the client's 100 ms,
  // not the front's 2 s default.
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(FrontTier, WholeFleetDownAnswers503WithRetryAfter) {
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  for (auto& replica : fleet.replicas) replica->kill();

  const auto response = front.proxy(get_request("/"));
  EXPECT_EQ(response.status, 503);
  const auto* retry_after = response.header("Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  EXPECT_GT(front.metrics().exhausted(), 0u);

  front.probe_once();
  const auto healthz = front.proxy(get_request("/_front/healthz"));
  EXPECT_EQ(healthz.status, 503);
}

TEST(FrontTier, ServesOverARealSocketEndToEnd) {
  Fleet3 fleet;
  auto options = manual_options();
  cluster::FrontTier front(options, fleet.targets());
  const auto status = front.start();
  ASSERT_TRUE(status.has_value()) << status.error().message;
  ASSERT_NE(front.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(front.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof address),
            0);
  const std::string wire =
      "GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(reply.find("X-Pdcu-Upstream:"), std::string::npos);
  front.stop();
}

TEST(FrontTier, RequestBodyIsNeverProxiedAsARequest) {
  // A request announcing a body whose bytes are a complete second request:
  // the front answers the first request and closes, so the smuggled
  // request is never parsed, let alone proxied.
  Fleet3 fleet;
  cluster::FrontTier front(manual_options(), fleet.targets());
  ASSERT_TRUE(front.start().has_value());

  const std::string smuggled = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string wire = "GET / HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                           std::to_string(smuggled.size()) + "\r\n\r\n" +
                           smuggled;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(front.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof address),
            0);
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  // Reads to EOF: a front that kept the connection open would hang here
  // until its read timeout instead.
  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  front.stop();

  const server::ResponseHead head = server::parse_response(reply);
  ASSERT_EQ(head.parse, server::ParseStatus::kOk) << reply;
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.close);
  ASSERT_TRUE(head.complete(reply.size()));
  // Exactly one response: nothing follows the first body.
  EXPECT_EQ(reply.size(), head.body_offset + *head.content_length) << reply;
  EXPECT_EQ(front.metrics().requests(), 1u);
}
