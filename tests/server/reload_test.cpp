// ReloadManager unit tests, driven deterministically through check_once()
// (no background thread, no sleeping): fingerprint change detection,
// last-known-good retention across failed reloads, capped exponential
// backoff, and recovery once content heals.
#include "pdcu/server/reload.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "pdcu/core/repository.hpp"
#include "pdcu/server/gossip_hook.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
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

void corrupt(const std::filesystem::path& dir, const std::string& slug) {
  EXPECT_TRUE(fs::write_file(dir / "activities" / (slug + ".md"),
                             "---\ndate: 2020-01-01\n---\nno title\n"));
}

/// Touch a file so the listing fingerprint moves even when size stays put:
/// rewrite with different content length.
void grow(const std::filesystem::path& dir, const std::string& slug) {
  auto path = dir / "activities" / (slug + ".md");
  auto text = fs::read_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_TRUE(fs::write_file(path, text.value() + "\n<!-- touched -->\n"));
}

/// Everything a ReloadManager needs, wired against a stopped server (the
/// manager only calls swap_router, which needs no live socket).
struct Fixture {
  explicit Fixture(const std::filesystem::path& content_dir,
                   server::ReloadOptions options = {.backoff_initial =
                                                        std::chrono::
                                                            milliseconds(0)},
                   const server::GossipEndpoint* gossip = nullptr) {
    auto loaded = core::Repository::load_lenient(content_dir);
    EXPECT_TRUE(loaded.has_value());
    site::SiteOptions site_options;
    site::Site built = site::rebuild(loaded.value().repository, cache,
                                     site_options);
    server::Router router(built, loaded.value().repository);
    router.set_gossip(gossip);
    http = std::make_unique<server::HttpServer>(std::move(router));
    auto fingerprint = server::content_fingerprint(content_dir);
    EXPECT_TRUE(fingerprint.has_value());
    manager = std::make_unique<server::ReloadManager>(
        content_dir, *http, health, metrics, std::move(cache),
        fingerprint.value(), options);
  }

  site::BuildCache cache;
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<server::ReloadManager> manager;
};

}  // namespace

TEST(ContentFingerprint, StableUntilContentChanges) {
  auto dir = fresh_content_dir("pdcu_fingerprint_test");
  auto first = server::content_fingerprint(dir);
  auto second = server::content_fingerprint(dir);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first.value(), second.value());

  grow(dir, "findsmallestcard");
  auto third = server::content_fingerprint(dir);
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(first.value(), third.value());

  // Removing a file changes the fingerprint too.
  std::filesystem::remove(dir / "activities" / "findsmallestcard.md");
  auto fourth = server::content_fingerprint(dir);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_NE(third.value(), fourth.value());
}

TEST(ContentFingerprint, MissingDirectoryIsAnError) {
  auto result = server::content_fingerprint("/nonexistent/content");
  EXPECT_FALSE(result.has_value());
}

TEST(ReloadManager, IdleWhileContentIsUnchanged) {
  auto dir = fresh_content_dir("pdcu_reload_idle");
  Fixture fx(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kIdle);
  EXPECT_EQ(fx.metrics.attempts(), 0u);
}

TEST(ReloadManager, ReloadsWhenTheFingerprintMoves) {
  auto dir = fresh_content_dir("pdcu_reload_change");
  Fixture fx(dir);
  grow(dir, "findsmallestcard");
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_EQ(fx.metrics.attempts(), 1u);
  EXPECT_EQ(fx.metrics.successes(), 1u);
  EXPECT_FALSE(fx.health.degraded());
  // And back to idle: the new fingerprint is now the baseline.
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kIdle);
}

TEST(ReloadManager, PartialQuarantineSwapsInDegradedSite) {
  auto dir = fresh_content_dir("pdcu_reload_degraded");
  Fixture fx(dir);
  corrupt(dir, "findsmallestcard");
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_TRUE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(),
                             "\"quarantined_slugs\":[\"findsmallestcard\"]"));
  // The served snapshot no longer has the quarantined page.
  auto snapshot = fx.http->router();
  server::Request request;
  request.method = "GET";
  request.target = "/activities/findsmallestcard/";
  request.version = "HTTP/1.1";
  EXPECT_EQ(snapshot->handle(request).status, 404);
}

/// Answers every gossip exchange with a fixed digest.
class StubGossip final : public server::GossipEndpoint {
 public:
  std::string exchange(std::string_view) const override { return "{}"; }
};

TEST(ReloadManager, ReloadedRouterKeepsTheGossipEndpoint) {
  auto dir = fresh_content_dir("pdcu_reload_gossip");
  const StubGossip gossip;
  Fixture fx(dir, {.backoff_initial = std::chrono::milliseconds(0)},
             &gossip);
  server::Request request;
  request.method = "GET";
  request.target = "/cluster/gossip?digest=";
  request.version = "HTTP/1.1";
  ASSERT_EQ(fx.http->router()->handle(request).status, 200);

  grow(dir, "findsmallestcard");
  ASSERT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  // The swapped-in snapshot inherits the replica's gossip wiring: a reload
  // must not take the replica out of the cluster.
  EXPECT_EQ(fx.http->router()->handle(request).status, 200);
}

TEST(ReloadManager, SymlinkLoopIsQuarantinedNotACrash) {
  auto dir = fresh_content_dir("pdcu_reload_symlink_loop");
  Fixture fx(dir);
  // A self-referential link: stat and open both fail with ELOOP. The
  // replica must list it, fail to read it, and keep serving the rest.
  std::filesystem::create_symlink("loop.md", dir / "activities" / "loop.md");
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_TRUE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(),
                             "\"quarantined_slugs\":[\"loop\"]"));
  server::Request request;
  request.method = "GET";
  request.target = "/activities/findsmallestcard/";
  request.version = "HTTP/1.1";
  EXPECT_EQ(fx.http->router()->handle(request).status, 200);
}

TEST(ReloadManager, MassQuarantineKeepsLastKnownGood) {
  auto dir = fresh_content_dir("pdcu_reload_mass");
  Fixture fx(dir);
  const auto before = fx.http->router();

  // Corrupt every activity: the reload must refuse to swap.
  auto files = fs::list_stamped(dir / "activities", ".md");
  ASSERT_TRUE(files.has_value());
  for (const auto& file : files.value()) {
    EXPECT_TRUE(fs::write_file(file.path,
                               "---\ndate: 2020-01-01\n---\nno title\n"));
  }
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_EQ(fx.metrics.failures(), 1u);
  EXPECT_TRUE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(), "reload.empty"));
  // The snapshot is untouched — last-known-good keeps serving.
  EXPECT_EQ(fx.http->router(), before);
}

TEST(ReloadManager, UnlistableContentDirIsAFailedReloadNotACrash) {
  auto dir = fresh_content_dir("pdcu_reload_unlistable");
  Fixture fx(dir);
  const auto before = fx.http->router();
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_EQ(fx.http->router(), before);
}

TEST(ReloadManager, BackoffHoldsThenRecoveryRestoresOk) {
  auto dir = fresh_content_dir("pdcu_reload_backoff");
  // Non-zero initial backoff so the step after a failure is observable.
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(1),
                   .backoff_initial = std::chrono::milliseconds(60000),
                   .backoff_max = std::chrono::milliseconds(60000)});
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  const auto attempts_after_failure = fx.metrics.attempts();
  // Inside the backoff window nothing is attempted, even though the
  // content is still broken.
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kBackoff);
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kBackoff);
  EXPECT_EQ(fx.metrics.attempts(), attempts_after_failure);
}

TEST(ReloadManager, FailureClearsOnlyThroughACleanReload) {
  auto dir = fresh_content_dir("pdcu_reload_recovery");
  Fixture fx(dir);  // zero backoff: every check may attempt
  std::filesystem::remove_all(dir);
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(fx.health.degraded());

  // Content heals (recreated identically — the fingerprint may even match
  // the pre-failure baseline); the manager must still reload rather than
  // report idle, because the last attempt failed.
  EXPECT_TRUE(core::Repository::builtin().export_to(dir).has_value());
  EXPECT_EQ(fx.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  EXPECT_FALSE(fx.health.degraded());
  EXPECT_TRUE(strs::contains(fx.health.render_json(),
                             "\"status\":\"ok\""));
  EXPECT_EQ(fx.metrics.consecutive_failures(), 0u);
}

TEST(ReloadManager, ExponentialBackoffDoublesAndCaps) {
  auto dir = fresh_content_dir("pdcu_reload_doubling");
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(1),
                   .backoff_initial = std::chrono::milliseconds(5),
                   .backoff_max = std::chrono::milliseconds(12)});
  std::filesystem::remove_all(dir);

  const auto fail_after_backoff = [&fx] {
    // Outwait whatever deadline is pending, then force an attempt.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return fx.manager->check_once();
  };
  EXPECT_EQ(fx.manager->check_once(), server::ReloadManager::Step::kFailed);
  const std::string after_first = fx.metrics.render_text();
  EXPECT_TRUE(strs::contains(after_first, "pdcu_reload_backoff_ms 5"));
  EXPECT_EQ(fail_after_backoff(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(
      strs::contains(fx.metrics.render_text(), "pdcu_reload_backoff_ms 10"));
  // Doubling again would give 20 ms; the cap clamps it to 12.
  EXPECT_EQ(fail_after_backoff(), server::ReloadManager::Step::kFailed);
  EXPECT_TRUE(
      strs::contains(fx.metrics.render_text(), "pdcu_reload_backoff_ms 12"));
  EXPECT_EQ(fx.metrics.consecutive_failures(), 3u);
  EXPECT_EQ(fx.metrics.successes(), 0u);
}

TEST(ReloadManager, StartAndStopAreIdempotent) {
  auto dir = fresh_content_dir("pdcu_reload_lifecycle");
  Fixture fx(dir, {.poll_interval = std::chrono::milliseconds(10)});
  EXPECT_FALSE(fx.manager->running());
  fx.manager->start();
  fx.manager->start();
  EXPECT_TRUE(fx.manager->running());
  fx.manager->stop();
  fx.manager->stop();
  EXPECT_FALSE(fx.manager->running());
}
