// Unit tests for the per-route server metrics: route classification, the
// renamed counter families, per-route latency histograms on /metrics, and
// the mean<=max consistency fix.
#include "pdcu/server/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "pdcu/obs/lint.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace obs = pdcu::obs;
namespace strs = pdcu::strings;

using std::chrono::microseconds;

TEST(RouteForPath, ClassifiesEveryRoute) {
  EXPECT_EQ(server::route_for_path("/"), server::Route::kPage);
  EXPECT_EQ(server::route_for_path("/activities/x/"), server::Route::kPage);
  EXPECT_EQ(server::route_for_path("/api/catalog.json"),
            server::Route::kCatalog);
  EXPECT_EQ(server::route_for_path("/api/activities/x.json"),
            server::Route::kActivity);
  EXPECT_EQ(server::route_for_path("/api/search"), server::Route::kSearch);
  EXPECT_EQ(server::route_for_path("/healthz"), server::Route::kHealthz);
  EXPECT_EQ(server::route_for_path("/metrics"), server::Route::kMetrics);
  // Near-misses are page traffic, not API routes.
  EXPECT_EQ(server::route_for_path("/api/searchx"), server::Route::kPage);
  EXPECT_EQ(server::route_for_path("/healthz2"), server::Route::kPage);
}

TEST(RouteLabels, AreStableExpositionValues) {
  EXPECT_EQ(server::route_label(server::Route::kPage), "page");
  EXPECT_EQ(server::route_label(server::Route::kCatalog), "catalog");
  EXPECT_EQ(server::route_label(server::Route::kActivity), "activity");
  EXPECT_EQ(server::route_label(server::Route::kSearch), "search");
  EXPECT_EQ(server::route_label(server::Route::kHealthz), "healthz");
  EXPECT_EQ(server::route_label(server::Route::kMetrics), "metrics");
  EXPECT_EQ(server::route_label(server::Route::kOther), "other");
}

TEST(ServerMetrics, CountsByRouteAndClass) {
  server::ServerMetrics metrics;
  metrics.record(server::Route::kSearch, 200, 100, microseconds{10});
  metrics.record(server::Route::kSearch, 400, 50, microseconds{5});
  metrics.record(server::Route::kPage, 200, 1000, microseconds{20});

  EXPECT_EQ(metrics.requests_total(), 3u);
  EXPECT_EQ(metrics.requests_by_class(2), 2u);
  EXPECT_EQ(metrics.requests_by_class(4), 1u);
  EXPECT_EQ(metrics.requests_by_route(server::Route::kSearch, 2), 1u);
  EXPECT_EQ(metrics.requests_by_route(server::Route::kSearch, 4), 1u);
  EXPECT_EQ(metrics.requests_by_route(server::Route::kPage, 2), 1u);
  EXPECT_EQ(metrics.requests_by_route(server::Route::kCatalog, 2), 0u);
  EXPECT_EQ(metrics.bytes_sent_total(), 1150u);
  EXPECT_EQ(metrics.route_latency(server::Route::kSearch).count(), 2u);
  EXPECT_EQ(metrics.route_latency(server::Route::kPage).count(), 1u);
}

TEST(ServerMetrics, LatencyStatsAreOneConsistentView) {
  server::ServerMetrics metrics;
  metrics.record(server::Route::kPage, 200, 1, microseconds{10});
  metrics.record(server::Route::kPage, 200, 1, microseconds{30});
  const auto stats = metrics.latency_stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.sum_us, 40u);
  EXPECT_EQ(stats.min_us, 10u);
  EXPECT_EQ(stats.max_us, 30u);
  EXPECT_DOUBLE_EQ(stats.mean_us, 20.0);
}

TEST(ServerMetrics, MeanNeverExceedsMaxUnderConcurrentLoad) {
  // Regression for the torn read: the old per-field getters could read a
  // sum that included requests the count did not, yielding mean > max.
  server::ServerMetrics metrics;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&metrics, &stop] {
      std::uint64_t us = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        metrics.record(server::Route::kPage, 200, 10,
                       microseconds{static_cast<long>(us % 1000 + 1)});
        ++us;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const auto stats = metrics.latency_stats();
    if (stats.count == 0) continue;
    EXPECT_LE(stats.mean_us, static_cast<double>(stats.max_us))
        << "count=" << stats.count << " sum=" << stats.sum_us;
    EXPECT_GE(stats.mean_us, static_cast<double>(stats.min_us));
  }
  stop.store(true);
  for (auto& thread : writers) thread.join();
}

TEST(ServerMetrics, RenderTextServesRenamedFamiliesWithDocs) {
  server::ServerMetrics metrics;
  metrics.record(server::Route::kSearch, 200, 64, microseconds{7});
  const std::string text = metrics.render_text();

  EXPECT_TRUE(strs::contains(text, "# TYPE pdcu_requests_total counter"));
  EXPECT_TRUE(
      strs::contains(text, "# TYPE pdcu_requests_by_class_total counter"));
  EXPECT_TRUE(
      strs::contains(text, "# TYPE pdcu_requests_by_route_total counter"));
  EXPECT_TRUE(
      strs::contains(text, "# TYPE pdcu_request_latency_us histogram"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_requests_by_class_total{class=\"2xx\"} 1"));
  EXPECT_TRUE(strs::contains(
      text,
      "pdcu_requests_by_route_total{route=\"search\",class=\"2xx\"} 1"));
  // The per-route histogram: cumulative buckets with le labels, +Inf, and
  // _sum/_count per route.
  EXPECT_TRUE(strs::contains(
      text, "pdcu_request_latency_us_bucket{route=\"search\",le=\"+Inf\"} 1"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_request_latency_us_sum{route=\"search\"} 7"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_request_latency_us_count{route=\"search\"} 1"));
  // The 7us sample is inside the le="16" bucket but not le="4".
  EXPECT_TRUE(strs::contains(
      text, "pdcu_request_latency_us_bucket{route=\"search\",le=\"4\"} 0"));
  EXPECT_TRUE(strs::contains(
      text, "pdcu_request_latency_us_bucket{route=\"search\",le=\"16\"} 1"));
  // Old names are gone by default.
  EXPECT_FALSE(strs::contains(text, "pdcu_requests{class="));
}

TEST(ServerMetrics, RenderTextIsPromtoolClean) {
  server::ServerMetrics metrics;
  metrics.record(server::Route::kPage, 200, 10, microseconds{3});
  metrics.record(server::Route::kSearch, 404, 20, microseconds{900});
  metrics.record(server::Route::kOther, 503, 30, microseconds{1});
  const auto problems = obs::lint_exposition(metrics.render_text());
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");
}

TEST(ReloadMetrics, ReportWhatTheLastReloadReusedPerStage) {
  server::ReloadMetrics metrics;
  server::ReloadReuse reuse;
  reuse.files_parsed = 1;
  reuse.files_reused = 999;
  reuse.docs_tokenized = 2;
  reuse.docs_reused = 998;
  reuse.entries_rebuilt = 4;
  reuse.entries_reused = 2160;
  metrics.record_attempt();
  metrics.record_success(0, 2, reuse);
  const std::string text = metrics.render_text();
  for (const char* line : {"pdcu_reload_pages_rendered_last 2\n",
                           "pdcu_reload_files_parsed_last 1\n",
                           "pdcu_reload_files_reused_last 999\n",
                           "pdcu_reload_docs_tokenized_last 2\n",
                           "pdcu_reload_docs_reused_last 998\n",
                           "pdcu_reload_cache_entries_rebuilt_last 4\n",
                           "pdcu_reload_cache_entries_reused_last 2160\n"}) {
    EXPECT_TRUE(strs::contains(text, line)) << line << text;
  }
  const auto problems = obs::lint_exposition(text);
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");

  // A failed reload leaves the last success's figures in place.
  metrics.record_failure(1000);
  EXPECT_TRUE(strs::contains(metrics.render_text(),
                             "pdcu_reload_files_parsed_last 1\n"));
}
