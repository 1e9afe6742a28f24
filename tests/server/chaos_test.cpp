// Chaos suite — the end-to-end acceptance test for the fault-tolerant
// content pipeline. A FaultInjector breaks real content files underneath
// a real HttpServer on a real socket, and the suite proves:
//   1. startup with a broken file degrades (quarantine) instead of dying:
//      healthy pages serve 200, /healthz reports degraded + the slug;
//   2. under live reload, a failed rebuild never swaps out the
//      last-known-good site — concurrent requests keep getting 200s the
//      whole time — and a subsequent clean rebuild restores "ok".
// Runs under ThreadSanitizer in CI (see .github/workflows/ci.yml).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/fault.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace fs = pdcu::fs;
namespace strs = pdcu::strings;

namespace {

std::filesystem::path fresh_content_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(core::Repository::builtin().export_to(dir).has_value());
  return dir;
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string simple_get(std::uint16_t port, const std::string& target) {
  const int fd = dial(port);
  if (fd < 0) return {};
  const std::string wire =
      "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  std::string reply;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string body_of(const std::string& reply) {
  const auto at = reply.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : reply.substr(at + 4);
}

/// A degraded-startup + live-reload stack: lenient load (under whatever
/// faults are installed), site build through a cache, server on an
/// ephemeral port, ReloadManager driven manually via check_once().
struct Stack {
  explicit Stack(const std::filesystem::path& content_dir) {
    auto loaded = core::Repository::load_lenient(content_dir);
    EXPECT_TRUE(loaded.has_value());
    const core::LoadReport& report = loaded.value();
    health.set_content(report.loaded(), report.quarantined_slugs());

    site::SiteOptions site_options;
    site_options.quarantined_inputs = report.quarantined.size();
    site::Site built = site::rebuild(report.repository, cache, site_options);
    server::Router router(built, report.repository);
    router.set_health(&health);
    router.set_reload_metrics(&metrics);

    server::ServerOptions options;
    options.port = 0;
    http = std::make_unique<server::HttpServer>(std::move(router),
                                                std::move(options));
    EXPECT_TRUE(http->start().has_value());

    auto fingerprint = server::content_fingerprint(content_dir);
    EXPECT_TRUE(fingerprint.has_value());
    manager = std::make_unique<server::ReloadManager>(
        content_dir, *http, health, metrics, std::move(cache),
        fingerprint.value(),
        server::ReloadOptions{
            .poll_interval = std::chrono::milliseconds(1),
            .backoff_initial = std::chrono::milliseconds(0)});
  }

  std::uint16_t port() const { return http->port(); }

  site::BuildCache cache;
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<server::ReloadManager> manager;
};

/// Appends to a content file through plain ofstream — deliberately NOT the
/// fs:: helpers, so the edit succeeds even while a FaultInjector is
/// breaking every fs::read_file underneath the reloader.
void grow(const std::filesystem::path& dir, const std::string& slug) {
  std::ofstream out(dir / "activities" / (slug + ".md"), std::ios::app);
  out << "\n<!-- touched -->\n";
}

/// Inserts indexable prose into one activity's "## Details" section (text
/// appended after the last section would not land in any indexed field),
/// so a reload changes what the search index contains. Plain fstream, not
/// the fs:: helpers, for the same reason as grow().
void append_prose(const std::filesystem::path& dir, const std::string& slug,
                  const std::string& text) {
  const auto path = dir / "activities" / (slug + ".md");
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const std::string marker = "## Details\n";
  const auto at = content.find(marker);
  ASSERT_NE(at, std::string::npos) << path;
  content.insert(at + marker.size(), "\n" + text + "\n");
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

}  // namespace

TEST(Chaos, BrokenFileAtStartupDegradesInsteadOfDying) {
  auto dir = fresh_content_dir("pdcu_chaos_startup");

  // The fault: findsmallestcard.md truncates to 3 bytes on every read, so
  // its front matter never parses.
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "findsmallestcard.md",
                     .mode = fs::FaultInjector::Mode::kTruncate,
                     .truncate_to = 3});
  fs::ScopedFaultInjection scope(injector);

  Stack stack(dir);
  EXPECT_GT(injector.injected(), 0u);

  // Healthy pages serve 200.
  EXPECT_TRUE(strs::starts_with(
      simple_get(stack.port(), "/activities/sortingnetworks/"),
      "HTTP/1.1 200 OK\r\n"));
  EXPECT_TRUE(strs::starts_with(simple_get(stack.port(), "/"),
                                "HTTP/1.1 200 OK\r\n"));
  // The broken one is quarantined, not served.
  EXPECT_TRUE(strs::starts_with(
      simple_get(stack.port(), "/activities/findsmallestcard/"),
      "HTTP/1.1 404 Not Found\r\n"));
  // /healthz names the quarantined slug and reports degraded.
  const std::string health = body_of(simple_get(stack.port(), "/healthz"));
  EXPECT_TRUE(strs::contains(health, "\"status\":\"degraded\""));
  EXPECT_TRUE(strs::contains(health, "\"quarantined\":1"));
  EXPECT_TRUE(strs::contains(health,
                             "\"quarantined_slugs\":[\"findsmallestcard\"]"));
}

/// Reload under load: RCU router swaps must stay invisible to in-flight
/// clients (the reactor's zero-copy writes keep the pre-swap snapshot
/// alive via the response guard). Parameterized on the connection engine;
/// the reactor is the only one, and the names keep the test id stable.
class ChaosBackends : public ::testing::TestWithParam<server::Backend> {};

INSTANTIATE_TEST_SUITE_P(
    Chaos, ChaosBackends, ::testing::Values(server::Backend::kReactor),
    [](const ::testing::TestParamInfo<server::Backend>&) {
      return "reactor";
    });

TEST_P(ChaosBackends, FailedReloadKeepsServingLastKnownGoodUnderLoad) {
  auto dir = fresh_content_dir("pdcu_chaos_reload");
  Stack stack(dir);  // healthy start
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), "/healthz")),
                             "\"status\":\"ok\""));

  // Hammer the server from client threads for the whole scenario; every
  // reply must be a 200 no matter what the reload side is doing.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> replies{0};
  std::atomic<std::uint64_t> non_200{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      const std::string target =
          i == 0 ? "/activities/sortingnetworks/" : "/";
      while (!done.load(std::memory_order_acquire)) {
        const std::string reply = simple_get(stack.port(), target);
        if (reply.empty()) continue;  // transient dial failure
        replies.fetch_add(1, std::memory_order_relaxed);
        if (!strs::starts_with(reply, "HTTP/1.1 200 OK\r\n")) {
          non_200.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Phase 1: content changes while reads of every file fail — the reload
  // attempt cannot even list/parse, so the last-known-good site stays.
  {
    fs::FaultInjector injector;
    injector.add_rule({.path_substring = "activities",
                       .mode = fs::FaultInjector::Mode::kIoError});
    fs::ScopedFaultInjection scope(injector);
    grow(dir, "sortingnetworks");
    EXPECT_EQ(stack.manager->check_once(),
              server::ReloadManager::Step::kFailed);
  }
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), "/healthz")),
                             "\"last_reload\":\"failed\""));
  // Still serving the full last-known-good catalog.
  EXPECT_TRUE(strs::starts_with(
      simple_get(stack.port(), "/activities/findsmallestcard/"),
      "HTTP/1.1 200 OK\r\n"));

  // Phase 2: faults clear; the next check reloads cleanly and /healthz
  // returns to ok.
  EXPECT_EQ(stack.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  const std::string healed = body_of(simple_get(stack.port(), "/healthz"));
  EXPECT_TRUE(strs::contains(healed, "\"status\":\"ok\""));
  EXPECT_TRUE(strs::contains(healed, "\"last_reload\":\"ok\""));

  done.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  EXPECT_GT(replies.load(), 0u);
  EXPECT_EQ(non_200.load(), 0u);
}

TEST(Chaos, MassCorruptionNeverSwapsOutTheGoodSite) {
  auto dir = fresh_content_dir("pdcu_chaos_mass");
  Stack stack(dir);

  // Truncate every activity on read: a reload quarantines all 38. The
  // rule matches ".md" files only, so the directory listing itself still
  // works — this exercises the mass-quarantine guard, not a listing error.
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = ".md",
                     .mode = fs::FaultInjector::Mode::kTruncate,
                     .truncate_to = 2});
  fs::ScopedFaultInjection scope(injector);
  grow(dir, "findsmallestcard");

  EXPECT_EQ(stack.manager->check_once(),
            server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), "/healthz")),
                             "reload.empty"));
  // Every page of the last-known-good site still serves.
  EXPECT_TRUE(strs::starts_with(
      simple_get(stack.port(), "/activities/findsmallestcard/"),
      "HTTP/1.1 200 OK\r\n"));
  EXPECT_TRUE(strs::starts_with(
      simple_get(stack.port(), "/api/catalog.json"), "HTTP/1.1 200 OK\r\n"));
}

TEST(Chaos, ReloadInvalidatesQueryCacheFailedReloadKeepsIt) {
  auto dir = fresh_content_dir("pdcu_chaos_query_cache");
  Stack stack(dir);

  // Warm the query cache with a term no activity contains yet: the result
  // ("count":0) is cached in the serving router's query cache.
  const std::string target = "/api/search?q=zanzibar";
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), target)),
                             "\"count\":0"));
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), target)),
                             "\"count\":0"));

  // The content now gains the term, but the reload attempt fails: the
  // last-known-good router — index AND warm query cache — must keep
  // serving the stale-but-consistent result.
  {
    fs::FaultInjector injector;
    injector.add_rule({.path_substring = "activities",
                       .mode = fs::FaultInjector::Mode::kIoError});
    fs::ScopedFaultInjection scope(injector);
    append_prose(dir, "sortingnetworks", "Zanzibar zanzibar expedition.");
    EXPECT_EQ(stack.manager->check_once(),
              server::ReloadManager::Step::kFailed);
  }
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), target)),
                             "\"count\":0"));

  // Faults clear; the reload succeeds and swaps in a new router with a
  // cold cache. The cached "count":0 must NOT survive the swap: the term
  // is now indexed and the same query finds it.
  EXPECT_EQ(stack.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  const std::string fresh = body_of(simple_get(stack.port(), target));
  EXPECT_FALSE(strs::contains(fresh, "\"count\":0")) << fresh;
  EXPECT_TRUE(strs::contains(fresh, "sortingnetworks")) << fresh;
}

TEST(Chaos, WatchThreadSurvivesFaultsAndRecovers) {
  auto dir = fresh_content_dir("pdcu_chaos_thread");
  Stack stack(dir);
  stack.manager->start();  // real background polling, 1 ms interval

  // The injector outlives its installation scope: the poll thread may
  // have loaded the hook pointer right before uninstall and still be
  // inside intercept() when the scope ends.
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "activities",
                     .mode = fs::FaultInjector::Mode::kIoError});
  {
    fs::ScopedFaultInjection scope(injector);
    grow(dir, "sortingnetworks");
    // Give the poll thread time to hit the fault at least once.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (stack.metrics.failures() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(stack.metrics.failures(), 0u);
    // Serving never stopped.
    EXPECT_TRUE(strs::starts_with(simple_get(stack.port(), "/"),
                                  "HTTP/1.1 200 OK\r\n"));
  }

  // Faults cleared: the watcher recovers on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (stack.metrics.successes() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stack.manager->stop();
  EXPECT_GT(stack.metrics.successes(), 0u);
  EXPECT_TRUE(strs::contains(body_of(simple_get(stack.port(), "/healthz")),
                             "\"status\":\"ok\""));
}
