// The query-result cache: LRU mechanics, hit/miss/eviction accounting, and
// the router integration — repeated searches serve the cached fragment
// (same body, same ETag), distinct raw spellings of the same normalized
// query share one entry, and /metrics exposes the counters.
#include "pdcu/server/query_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "pdcu/core/repository.hpp"
#include "pdcu/server/metrics.hpp"
#include "pdcu/server/router.hpp"
#include "pdcu/site/site.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;

namespace {

server::Request get(std::string target) {
  server::Request request;
  request.method = "GET";
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  return request;
}

server::Router make_router() {
  const auto& repo = core::Repository::builtin();
  return server::Router(site::build_site(repo), repo);
}

std::string header(const server::Response& response, std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return value;
  }
  return {};
}

}  // namespace

TEST(QueryCache, MissesThenHits) {
  server::QueryCache cache(4);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.put("a", "value-a");
  const auto found = cache.get("a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, "value-a");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCache, EvictsLeastRecentlyUsed) {
  server::QueryCache cache(2);
  cache.put("a", "1");
  cache.put("b", "2");
  EXPECT_NE(cache.get("a"), nullptr);  // a is now most recent
  cache.put("c", "3");                  // evicts b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(QueryCache, PutRefreshesExistingKey) {
  server::QueryCache cache(2);
  cache.put("a", "old");
  cache.put("b", "2");
  cache.put("a", "new");  // refresh, not insert: a becomes most recent
  cache.put("c", "3");    // evicts b, not a
  EXPECT_EQ(*cache.get("a"), "new");
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(QueryCache, ZeroCapacityDisablesCaching) {
  server::QueryCache cache(0);
  cache.put("a", "1");
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheRouter, RepeatSearchHitsTheCache) {
  const auto router = make_router();
  const auto first = router.handle(get("/api/search?q=sorting"));
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(router.query_cache().misses(), 1u);
  EXPECT_EQ(router.query_cache().hits(), 0u);

  const auto second = router.handle(get("/api/search?q=sorting"));
  EXPECT_EQ(router.query_cache().hits(), 1u);
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(header(second, "ETag"), header(first, "ETag"));
  EXPECT_FALSE(header(first, "ETag").empty());
}

TEST(QueryCacheRouter, SpellingsOfOneNormalizedQueryShareAnEntry) {
  // "sorting" and "SORTED" normalize to the same term, so the second
  // spelling is a cache hit; only the echoed raw query differs.
  const auto router = make_router();
  const auto first = router.handle(get("/api/search?q=sorting"));
  const auto second = router.handle(get("/api/search?q=SORTED"));
  EXPECT_EQ(router.query_cache().misses(), 1u);
  EXPECT_EQ(router.query_cache().hits(), 1u);
  EXPECT_NE(second.body, first.body);  // raw echo differs
  const auto tail = [](const std::string& body) {
    return body.substr(body.find("\"count\""));
  };
  EXPECT_EQ(tail(second.body), tail(first.body));  // results identical
}

TEST(QueryCacheRouter, DifferentLimitsAreDifferentEntries) {
  const auto router = make_router();
  router.handle(get("/api/search?q=sorting&limit=3"));
  router.handle(get("/api/search?q=sorting&limit=5"));
  EXPECT_EQ(router.query_cache().misses(), 2u);
  EXPECT_EQ(router.query_cache().hits(), 0u);
}

TEST(QueryCacheRouter, MetricsExposeCacheCounters) {
  auto router = make_router();
  server::ServerMetrics metrics;
  router.set_metrics(&metrics);
  router.handle(get("/api/search?q=sorting"));
  router.handle(get("/api/search?q=sorting"));
  const auto response = router.handle(get("/metrics"));
  EXPECT_NE(response.body.find("pdcu_search_cache_hits_total 1"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("pdcu_search_cache_misses_total 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("pdcu_search_cache_entries 1"),
            std::string::npos);
}
