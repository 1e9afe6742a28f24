// Unit tests for the page cache (ETags, path normalization) and the
// router's dispatch table, including conditional-GET semantics.
#include "pdcu/server/router.hpp"

#include <gtest/gtest.h>

#include "pdcu/core/repository.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/page_cache.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace strs = pdcu::strings;

namespace {

const server::Router& router() {
  static const server::Router kRouter = [] {
    const auto& repo = core::Repository::builtin();
    return server::Router(site::build_site(repo), repo);
  }();
  return kRouter;
}

server::Request get(std::string target) {
  server::Request request;
  request.method = "GET";
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  return request;
}

}  // namespace

TEST(Fnv1a, MatchesKnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(pdcu::hash::fnv1a_64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(pdcu::hash::fnv1a_64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(pdcu::hash::fnv1a_64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, StrongEtagIsQuotedHex) {
  EXPECT_EQ(server::strong_etag("a"), "\"af63dc4c8601ec8c\"");
}

TEST(PageCache, NormalizesRequestPaths) {
  EXPECT_EQ(server::PageCache::normalize("/"), "index.html");
  EXPECT_EQ(server::PageCache::normalize(""), "index.html");
  EXPECT_EQ(server::PageCache::normalize("/activities/x/"),
            "activities/x/index.html");
  EXPECT_EQ(server::PageCache::normalize("/index.json"), "index.json");
  EXPECT_EQ(server::PageCache::normalize("/../etc/passwd"), "");
}

TEST(PageCache, ServesDirectoryIndexWithOrWithoutSlash) {
  server::PageCache cache;
  cache.put("activities/x/index.html", "<html>x</html>",
            "text/html; charset=utf-8");
  ASSERT_NE(cache.find("/activities/x/"), nullptr);
  ASSERT_NE(cache.find("/activities/x"), nullptr);
  EXPECT_EQ(cache.find("/activities/y/"), nullptr);
  EXPECT_EQ(cache.find("/activities/x/"), cache.find("/activities/x"));
}

TEST(PageCache, TracksBytesAndReplacements) {
  server::PageCache cache;
  cache.put("a.txt", "12345", "text/plain");
  cache.put("b.txt", "123", "text/plain");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_bytes(), 8u);
  cache.put("a.txt", "1", "text/plain");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_bytes(), 4u);
}

TEST(PageCache, CachesEveryPageOfABuiltSite) {
  const auto built = site::build_site(core::Repository::builtin());
  server::PageCache cache(built);
  EXPECT_EQ(cache.size(), built.pages.size() + built.documents.size());
  const auto* entry = cache.find("/");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->content_type, "text/html; charset=utf-8");
  EXPECT_FALSE(entry->etag.empty());
}

TEST(Router, ServesIndexAndActivityPages) {
  const auto response = router().handle(get("/"));
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"), "text/html; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "PDCunplugged"));

  const auto page = router().handle(get("/activities/findsmallestcard/"));
  EXPECT_EQ(page.status, 200);
  EXPECT_TRUE(strs::contains(page.body, "<h1>FindSmallestCard</h1>"));
}

TEST(Router, ServesTheJsonCatalog) {
  const auto response = router().handle(get("/api/catalog.json"));
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "application/json; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "\"activities\""));
  EXPECT_TRUE(strs::contains(response.body, "findsmallestcard"));
}

TEST(Router, ServesPerActivityJson) {
  const auto response =
      router().handle(get("/api/activities/findsmallestcard.json"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(response.body, "\"slug\""));
  EXPECT_TRUE(strs::contains(response.body, "findsmallestcard"));
  EXPECT_EQ(router().handle(get("/api/activities/nope.json")).status, 404);
}

TEST(Router, HealthzIsAlwaysOk) {
  const auto response = router().handle(get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST(Router, MetricsRequiresWiring) {
  EXPECT_EQ(router().handle(get("/metrics")).status, 404);

  const auto& repo = core::Repository::builtin();
  server::Router wired(site::build_site(repo), repo);
  server::ServerMetrics metrics;
  metrics.record(server::Route::kPage, 200, 128,
                 std::chrono::microseconds{42});
  wired.set_metrics(&metrics);
  const auto response = wired.handle(get("/metrics"));
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "pdcu_requests_total 1"));
  EXPECT_TRUE(strs::contains(response.body,
                             "pdcu_requests_by_class_total{class=\"2xx\"} 1"));
  EXPECT_TRUE(strs::contains(
      response.body,
      "pdcu_requests_by_route_total{route=\"page\",class=\"2xx\"} 1"));
  EXPECT_TRUE(strs::contains(response.body, "pdcu_bytes_sent_total 128"));
  EXPECT_TRUE(
      strs::contains(response.body, "pdcu_latency_us{stat=\"min\"} 42"));
  // The old pre-rename family stays off unless explicitly re-enabled.
  EXPECT_FALSE(strs::contains(response.body, "pdcu_requests{class="));
}

TEST(Router, MetricsExposeBuildStatsWhenAttached) {
  const auto& repo = core::Repository::builtin();
  site::BuildStats stats;
  server::Router wired(site::build_site(repo, {}, &stats), repo);
  server::ServerMetrics metrics;
  wired.set_metrics(&metrics);

  // Without build stats no pdcu_build_* lines appear.
  EXPECT_FALSE(
      strs::contains(wired.handle(get("/metrics")).body, "pdcu_build_pages"));

  wired.set_build_stats(stats);
  const auto response = wired.handle(get("/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(
      response.body,
      "pdcu_build_pages " + std::to_string(stats.pages_total)));
  EXPECT_TRUE(strs::contains(
      response.body,
      "pdcu_build_pages_rendered " + std::to_string(stats.pages_rendered)));
  EXPECT_TRUE(strs::contains(response.body, "pdcu_build_pages_reused 0"));
  EXPECT_TRUE(strs::contains(response.body,
                             "pdcu_build_phase_us{phase=\"parse\"}"));
  EXPECT_TRUE(strs::contains(response.body,
                             "pdcu_build_phase_us{phase=\"render\"}"));
  EXPECT_TRUE(strs::contains(response.body,
                             "pdcu_build_phase_us{phase=\"assemble\"}"));
}

TEST(Router, UnknownPathIs404) {
  const auto response = router().handle(get("/no/such/page/"));
  EXPECT_EQ(response.status, 404);
  EXPECT_TRUE(strs::contains(response.body, "404"));
}

TEST(Router, NonGetMethodsAre405WithAllow) {
  auto request = get("/");
  request.method = "POST";
  const auto response = router().handle(request);
  EXPECT_EQ(response.status, 405);
  ASSERT_NE(response.header("allow"), nullptr);
  EXPECT_EQ(*response.header("allow"), "GET, HEAD");
}

TEST(Router, EtagRoundTripYields304) {
  const auto first = router().handle(get("/activities/findsmallestcard/"));
  ASSERT_EQ(first.status, 200);
  const std::string* etag = first.header("etag");
  ASSERT_NE(etag, nullptr);

  auto revalidation = get("/activities/findsmallestcard/");
  revalidation.headers.emplace_back("if-none-match", *etag);
  const auto second = router().handle(revalidation);
  EXPECT_EQ(second.status, 304);
  EXPECT_TRUE(second.body.empty());
  ASSERT_NE(second.header("etag"), nullptr);
  EXPECT_EQ(*second.header("etag"), *etag);
}

TEST(Router, EtagMismatchAndWildcardBehave) {
  auto stale = get("/");
  stale.headers.emplace_back("if-none-match", "\"0000000000000000\"");
  EXPECT_EQ(router().handle(stale).status, 200);

  auto wildcard = get("/");
  wildcard.headers.emplace_back("if-none-match", "*");
  EXPECT_EQ(router().handle(wildcard).status, 304);

  auto list = get("/");
  const auto fresh = router().handle(get("/"));
  ASSERT_NE(fresh.header("etag"), nullptr);
  list.headers.emplace_back(
      "if-none-match", "\"1111111111111111\", " + *fresh.header("etag"));
  EXPECT_EQ(router().handle(list).status, 304);
}

TEST(Router, QueryStringsDoNotBreakDispatch) {
  const auto response = router().handle(get("/?utm_source=test"));
  EXPECT_EQ(response.status, 200);
}

TEST(Router, DistinctPagesGetDistinctEtags) {
  const auto a = router().handle(get("/activities/findsmallestcard/"));
  const auto b = router().handle(get("/activities/concerttickets/"));
  ASSERT_NE(a.header("etag"), nullptr);
  ASSERT_NE(b.header("etag"), nullptr);
  EXPECT_NE(*a.header("etag"), *b.header("etag"));
}

TEST(Router, PostToUnknownPathIs404NotMethodError) {
  auto request = get("/no/such/page/");
  request.method = "POST";
  const auto response = router().handle(request);
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.header("allow"), nullptr);
}

TEST(Router, DeleteOnApiRouteIs405) {
  auto request = get("/api/search?q=sorting");
  request.method = "DELETE";
  const auto response = router().handle(request);
  EXPECT_EQ(response.status, 405);
  ASSERT_NE(response.header("allow"), nullptr);
  EXPECT_EQ(*response.header("allow"), "GET, HEAD");
}

TEST(RouterSearch, ServesRankedJson) {
  const auto response = router().handle(get("/api/search?q=sorting"));
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "application/json; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "\"hits\":["));
  EXPECT_TRUE(strs::contains(response.body, "\"slug\":\"parallelcardsort\""));
  EXPECT_TRUE(strs::contains(response.body, "<mark>"));
  EXPECT_TRUE(strs::contains(response.body, "\"score\":"));
}

TEST(RouterSearch, DecodesUrlEncodedQueries) {
  const auto plus = router().handle(get("/api/search?q=message+passing"));
  const auto pct = router().handle(get("/api/search?q=message%20passing"));
  EXPECT_EQ(plus.status, 200);
  EXPECT_EQ(plus.body, pct.body);
  EXPECT_TRUE(strs::contains(plus.body, "\"query\":\"message passing\""));
}

TEST(RouterSearch, FilterPrefixesWorkThroughTheApi) {
  const auto response = router().handle(
      get("/api/search?q=message%20passing%20cs2013%3APD-Communication"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(response.body, "byzantinegenerals"));
}

TEST(RouterSearch, LimitCapsTheHitCount) {
  const auto response = router().handle(get("/api/search?q=students&limit=2"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(response.body, "\"count\":2"));
}

TEST(RouterSearch, MissingOrEmptyQueryIs400) {
  EXPECT_EQ(router().handle(get("/api/search")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?limit=5")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=%20%20")).status, 400);
}

TEST(RouterSearch, MalformedLimitIs400NotSilentTruncation) {
  // Regression: strtoul would parse "10abc" as 10 and serve a 200.
  const auto response = router().handle(get("/api/search?q=x&limit=10abc"));
  EXPECT_EQ(response.status, 400);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "application/json; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "\"error\""));
  EXPECT_TRUE(strs::contains(response.body, "limit"));
}

TEST(RouterSearch, NonNumericNegativeZeroAndOverflowLimitsAre400) {
  // strtoul accepted all of these: "abc" parsed to 0, "-1" wrapped to
  // UINT64_MAX, and overflow saturated silently.
  EXPECT_EQ(router().handle(get("/api/search?q=x&limit=abc")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=x&limit=-1")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=x&limit=0")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=x&limit=")).status, 400);
  EXPECT_EQ(router().handle(get("/api/search?q=x&limit=%2B5")).status, 400);
  EXPECT_EQ(
      router().handle(get("/api/search?q=x&limit=99999999999999999999"))
          .status,
      400);
}

TEST(RouterSearch, ValidLimitStillWorksAndLargeValuesClamp) {
  EXPECT_EQ(router().handle(get("/api/search?q=students&limit=1")).status,
            200);
  // A huge-but-valid limit clamps to the server cap instead of erroring.
  const auto response =
      router().handle(get("/api/search?q=students&limit=1000000"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(response.body, "\"hits\":["));
}

TEST(RouterSearch, EtagRoundTripYields304) {
  const auto first = router().handle(get("/api/search?q=sorting"));
  ASSERT_EQ(first.status, 200);
  const std::string* etag = first.header("etag");
  ASSERT_NE(etag, nullptr);

  auto revalidation = get("/api/search?q=sorting");
  revalidation.headers.emplace_back("if-none-match", *etag);
  const auto second = router().handle(revalidation);
  EXPECT_EQ(second.status, 304);
  EXPECT_TRUE(second.body.empty());
  ASSERT_NE(second.header("etag"), nullptr);
  EXPECT_EQ(*second.header("etag"), *etag);

  // A different query gets a different ETag.
  const auto other = router().handle(get("/api/search?q=byzantine"));
  ASSERT_NE(other.header("etag"), nullptr);
  EXPECT_NE(*other.header("etag"), *etag);
}

TEST(RouterSearch, ResultsAreDeterministicAcrossCalls) {
  const auto a = router().handle(get("/api/search?q=race%20condition"));
  const auto b = router().handle(get("/api/search?q=race%20condition"));
  EXPECT_EQ(a.body, b.body);
}

TEST(RouterSearch, PrebuiltIndexServesIdenticalResults) {
  const auto& repo = core::Repository::builtin();
  auto index = pdcu::search::SearchIndex::build(repo);
  server::Router prebuilt(site::build_site(repo), repo, std::move(index));
  const auto from_prebuilt =
      prebuilt.handle(get("/api/search?q=message+passing"));
  const auto from_default =
      router().handle(get("/api/search?q=message+passing"));
  EXPECT_EQ(from_prebuilt.body, from_default.body);
}

TEST(Router, SearchPageIsServed) {
  const auto response = router().handle(get("/search/"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(strs::contains(response.body, "search-form"));
  EXPECT_TRUE(strs::contains(response.body, "/api/search"));
}

TEST(RouterHealth, HealthzServesJsonWhenATrackerIsWired) {
  const auto& repo = core::Repository::builtin();
  server::Router wired(site::build_site(repo), repo);
  server::HealthTracker health;
  health.set_content(repo.activities().size(), {});
  wired.set_health(&health);

  const auto response = wired.handle(get("/healthz"));
  EXPECT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "application/json; charset=utf-8");
  EXPECT_TRUE(strs::contains(response.body, "\"status\":\"ok\""));
  EXPECT_TRUE(strs::contains(
      response.body,
      "\"activities\":" + std::to_string(repo.activities().size())));
  EXPECT_TRUE(strs::contains(response.body, "\"quarantined\":0"));
  EXPECT_TRUE(strs::contains(response.body, "\"last_reload\":\"never\""));
}

TEST(RouterHealth, QuarantineAndReloadFailuresShowUpInHealthz) {
  const auto& repo = core::Repository::builtin();
  server::Router wired(site::build_site(repo), repo);
  server::HealthTracker health;
  health.set_content(37, {"findsmallestcard"});
  wired.set_health(&health);

  auto body = wired.handle(get("/healthz")).body;
  EXPECT_TRUE(strs::contains(body, "\"status\":\"degraded\""));
  EXPECT_TRUE(strs::contains(body, "\"quarantined\":1"));
  EXPECT_TRUE(strs::contains(
      body, "\"quarantined_slugs\":[\"findsmallestcard\"]"));

  health.record_reload_failure("[reload.empty] all quarantined");
  body = wired.handle(get("/healthz")).body;
  EXPECT_TRUE(strs::contains(body, "\"last_reload\":\"failed\""));
  EXPECT_TRUE(strs::contains(body, "\"last_reload_age_ms\":"));
  EXPECT_TRUE(strs::contains(
      body, "\"last_error\":\"[reload.empty] all quarantined\""));

  health.set_content(38, {});
  health.record_reload_success();
  body = wired.handle(get("/healthz")).body;
  EXPECT_TRUE(strs::contains(body, "\"status\":\"ok\""));
  EXPECT_TRUE(strs::contains(body, "\"last_reload\":\"ok\""));
}

TEST(RouterHealth, MetricsExposeReloadCountersWhenAttached) {
  const auto& repo = core::Repository::builtin();
  server::Router wired(site::build_site(repo), repo);
  server::ServerMetrics metrics;
  wired.set_metrics(&metrics);

  // Without wiring, no pdcu_reload_* lines appear.
  EXPECT_FALSE(strs::contains(wired.handle(get("/metrics")).body,
                              "pdcu_reload_attempts_total"));

  server::ReloadMetrics reload;
  reload.record_attempt();
  reload.record_failure(1000);
  reload.record_attempt();
  reload.record_success(2, 5);
  wired.set_reload_metrics(&reload);

  const std::string body = wired.handle(get("/metrics")).body;
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_attempts_total 2"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_success_total 1"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_failures_total 1"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_consecutive_failures 0"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_last_ok 1"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_quarantined 2"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_pages_rendered_last 5"));
  EXPECT_TRUE(strs::contains(body, "pdcu_reload_backoff_ms 0"));
}
