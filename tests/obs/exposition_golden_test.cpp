// Golden bytes of every /metrics source: each renderer's exposition for
// fixed counter values and recorded samples, and the composed /metrics
// body of a Router with every set_* wired. Scrapers and dashboards key on
// these exact names, labels and numbers, so a change to the exposition
// writer must leave every byte here as it is.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>

#include "pdcu/cluster/metrics.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/net/metrics.hpp"
#include "pdcu/obs/lint.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/server/metrics.hpp"
#include "pdcu/server/router.hpp"
#include "pdcu/site/site.hpp"

namespace server = pdcu::server;
namespace obs = pdcu::obs;
using std::chrono::microseconds;

namespace {

// ---- fixtures: fixed values for every renderer ----------------------------

void fill(server::ServerMetrics& metrics) {
  using server::Route;
  metrics.record(Route::kPage, 200, 1024, microseconds{3});
  metrics.record(Route::kPage, 304, 180, microseconds{1});
  metrics.record(Route::kCatalog, 200, 40000, microseconds{17});
  metrics.record(Route::kActivity, 404, 90, microseconds{5});
  metrics.record(Route::kSearch, 200, 2100, microseconds{250});
  metrics.record(Route::kSearch, 400, 60, microseconds{2});
  metrics.record(Route::kHealthz, 200, 3, microseconds{0});
  metrics.record(Route::kMetrics, 200, 9000, microseconds{70000});
  metrics.record(Route::kOther, 101, 0, microseconds{64});
  // Past the last finite bound: counted only by le="+Inf".
  metrics.record(Route::kOther, 503, 0, microseconds{100000000});
  metrics.record_write_error();
}

void fill(server::ReloadMetrics& metrics) {
  metrics.record_attempt();
  metrics.record_failure(200);
  metrics.record_attempt();
  metrics.record_success(1, 5, {10, 990, 4, 996, 7, 212});
  metrics.record_attempt();
  metrics.record_failure(400);
}

void fill(obs::SpanRegistry& spans) {
  spans.record("site.parse", 120);
  spans.record("site.parse", 480);
  spans.record("search.build", 9000);
}

void fill(pdcu::net::NetMetrics& metrics) {
  metrics.set_shard_count(2);
  for (int i = 0; i < 3; ++i) metrics.record_accept(0);
  metrics.record_accept(1);
  metrics.record_close();
  metrics.record_overload();
  metrics.record_read_timeout();
  metrics.record_idle_close();
  metrics.record_writev(false);
  metrics.record_writev(false);
  metrics.record_writev(true);
  metrics.record_write_error();
  metrics.record_requests(42);
}

pdcu::site::BuildStats build_stats() {
  pdcu::site::BuildStats stats;
  stats.pages_total = 218;
  stats.pages_rendered = 2;
  stats.pages_reused = 216;
  stats.activities_quarantined = 1;
  stats.parse_time = microseconds{210};
  stats.render_time = microseconds{980};
  stats.assemble_time = microseconds{44};
  return stats;
}

void fill(pdcu::cluster::ClusterMetrics& metrics) {
  for (int i = 0; i < 9; ++i) metrics.record_request();
  pdcu::cluster::AttemptTally failed_over;
  failed_over.retries = 2;
  failed_over.upstream_errors = 2;
  failed_over.shed = true;
  failed_over.failover = true;
  metrics.record_attempts(failed_over);
  pdcu::cluster::AttemptTally gave_up;
  gave_up.upstream_errors = 1;
  gave_up.exhausted = true;
  metrics.record_attempts(gave_up);
  metrics.record_probe_failure();
  metrics.record_ring_moves(7);
  metrics.set_routable(2, 3);
}

// ---- golden exposition ----------------------------------------------------

constexpr std::string_view kServerGolden = R"golden(# HELP pdcu_requests_total Requests answered, including connection-level errors.
# TYPE pdcu_requests_total counter
pdcu_requests_total 10
# HELP pdcu_requests_by_class_total Requests answered, by status class.
# TYPE pdcu_requests_by_class_total counter
pdcu_requests_by_class_total{class="1xx"} 1
pdcu_requests_by_class_total{class="2xx"} 5
pdcu_requests_by_class_total{class="3xx"} 1
pdcu_requests_by_class_total{class="4xx"} 2
pdcu_requests_by_class_total{class="5xx"} 1
# HELP pdcu_requests_by_route_total Requests answered, by route and status class.
# TYPE pdcu_requests_by_route_total counter
pdcu_requests_by_route_total{route="page",class="1xx"} 0
pdcu_requests_by_route_total{route="page",class="2xx"} 1
pdcu_requests_by_route_total{route="page",class="3xx"} 1
pdcu_requests_by_route_total{route="page",class="4xx"} 0
pdcu_requests_by_route_total{route="page",class="5xx"} 0
pdcu_requests_by_route_total{route="catalog",class="1xx"} 0
pdcu_requests_by_route_total{route="catalog",class="2xx"} 1
pdcu_requests_by_route_total{route="catalog",class="3xx"} 0
pdcu_requests_by_route_total{route="catalog",class="4xx"} 0
pdcu_requests_by_route_total{route="catalog",class="5xx"} 0
pdcu_requests_by_route_total{route="activity",class="1xx"} 0
pdcu_requests_by_route_total{route="activity",class="2xx"} 0
pdcu_requests_by_route_total{route="activity",class="3xx"} 0
pdcu_requests_by_route_total{route="activity",class="4xx"} 1
pdcu_requests_by_route_total{route="activity",class="5xx"} 0
pdcu_requests_by_route_total{route="search",class="1xx"} 0
pdcu_requests_by_route_total{route="search",class="2xx"} 1
pdcu_requests_by_route_total{route="search",class="3xx"} 0
pdcu_requests_by_route_total{route="search",class="4xx"} 1
pdcu_requests_by_route_total{route="search",class="5xx"} 0
pdcu_requests_by_route_total{route="healthz",class="1xx"} 0
pdcu_requests_by_route_total{route="healthz",class="2xx"} 1
pdcu_requests_by_route_total{route="healthz",class="3xx"} 0
pdcu_requests_by_route_total{route="healthz",class="4xx"} 0
pdcu_requests_by_route_total{route="healthz",class="5xx"} 0
pdcu_requests_by_route_total{route="metrics",class="1xx"} 0
pdcu_requests_by_route_total{route="metrics",class="2xx"} 1
pdcu_requests_by_route_total{route="metrics",class="3xx"} 0
pdcu_requests_by_route_total{route="metrics",class="4xx"} 0
pdcu_requests_by_route_total{route="metrics",class="5xx"} 0
pdcu_requests_by_route_total{route="other",class="1xx"} 1
pdcu_requests_by_route_total{route="other",class="2xx"} 0
pdcu_requests_by_route_total{route="other",class="3xx"} 0
pdcu_requests_by_route_total{route="other",class="4xx"} 0
pdcu_requests_by_route_total{route="other",class="5xx"} 1
# HELP pdcu_bytes_sent_total Bytes written to client sockets.
# TYPE pdcu_bytes_sent_total counter
pdcu_bytes_sent_total 52457
# HELP pdcu_write_errors_total Responses lost to a failed socket write (EPIPE, ECONNRESET).
# TYPE pdcu_write_errors_total counter
pdcu_write_errors_total 1
# HELP pdcu_latency_us Aggregate request latency in microseconds (min, mean, max over the server's lifetime).
# TYPE pdcu_latency_us gauge
pdcu_latency_us{stat="min"} 0
pdcu_latency_us{stat="mean"} 10007034.2
pdcu_latency_us{stat="max"} 100000000
# HELP pdcu_request_latency_us Request handling latency in microseconds, by route.
# TYPE pdcu_request_latency_us histogram
pdcu_request_latency_us_bucket{route="page",le="1"} 1
pdcu_request_latency_us_bucket{route="page",le="4"} 2
pdcu_request_latency_us_bucket{route="page",le="16"} 2
pdcu_request_latency_us_bucket{route="page",le="64"} 2
pdcu_request_latency_us_bucket{route="page",le="256"} 2
pdcu_request_latency_us_bucket{route="page",le="1024"} 2
pdcu_request_latency_us_bucket{route="page",le="4096"} 2
pdcu_request_latency_us_bucket{route="page",le="16384"} 2
pdcu_request_latency_us_bucket{route="page",le="65536"} 2
pdcu_request_latency_us_bucket{route="page",le="262144"} 2
pdcu_request_latency_us_bucket{route="page",le="1048576"} 2
pdcu_request_latency_us_bucket{route="page",le="4194304"} 2
pdcu_request_latency_us_bucket{route="page",le="16777216"} 2
pdcu_request_latency_us_bucket{route="page",le="67108864"} 2
pdcu_request_latency_us_bucket{route="page",le="+Inf"} 2
pdcu_request_latency_us_sum{route="page"} 4
pdcu_request_latency_us_count{route="page"} 2
pdcu_request_latency_us_bucket{route="catalog",le="1"} 0
pdcu_request_latency_us_bucket{route="catalog",le="4"} 0
pdcu_request_latency_us_bucket{route="catalog",le="16"} 0
pdcu_request_latency_us_bucket{route="catalog",le="64"} 1
pdcu_request_latency_us_bucket{route="catalog",le="256"} 1
pdcu_request_latency_us_bucket{route="catalog",le="1024"} 1
pdcu_request_latency_us_bucket{route="catalog",le="4096"} 1
pdcu_request_latency_us_bucket{route="catalog",le="16384"} 1
pdcu_request_latency_us_bucket{route="catalog",le="65536"} 1
pdcu_request_latency_us_bucket{route="catalog",le="262144"} 1
pdcu_request_latency_us_bucket{route="catalog",le="1048576"} 1
pdcu_request_latency_us_bucket{route="catalog",le="4194304"} 1
pdcu_request_latency_us_bucket{route="catalog",le="16777216"} 1
pdcu_request_latency_us_bucket{route="catalog",le="67108864"} 1
pdcu_request_latency_us_bucket{route="catalog",le="+Inf"} 1
pdcu_request_latency_us_sum{route="catalog"} 17
pdcu_request_latency_us_count{route="catalog"} 1
pdcu_request_latency_us_bucket{route="activity",le="1"} 0
pdcu_request_latency_us_bucket{route="activity",le="4"} 0
pdcu_request_latency_us_bucket{route="activity",le="16"} 1
pdcu_request_latency_us_bucket{route="activity",le="64"} 1
pdcu_request_latency_us_bucket{route="activity",le="256"} 1
pdcu_request_latency_us_bucket{route="activity",le="1024"} 1
pdcu_request_latency_us_bucket{route="activity",le="4096"} 1
pdcu_request_latency_us_bucket{route="activity",le="16384"} 1
pdcu_request_latency_us_bucket{route="activity",le="65536"} 1
pdcu_request_latency_us_bucket{route="activity",le="262144"} 1
pdcu_request_latency_us_bucket{route="activity",le="1048576"} 1
pdcu_request_latency_us_bucket{route="activity",le="4194304"} 1
pdcu_request_latency_us_bucket{route="activity",le="16777216"} 1
pdcu_request_latency_us_bucket{route="activity",le="67108864"} 1
pdcu_request_latency_us_bucket{route="activity",le="+Inf"} 1
pdcu_request_latency_us_sum{route="activity"} 5
pdcu_request_latency_us_count{route="activity"} 1
pdcu_request_latency_us_bucket{route="search",le="1"} 0
pdcu_request_latency_us_bucket{route="search",le="4"} 1
pdcu_request_latency_us_bucket{route="search",le="16"} 1
pdcu_request_latency_us_bucket{route="search",le="64"} 1
pdcu_request_latency_us_bucket{route="search",le="256"} 2
pdcu_request_latency_us_bucket{route="search",le="1024"} 2
pdcu_request_latency_us_bucket{route="search",le="4096"} 2
pdcu_request_latency_us_bucket{route="search",le="16384"} 2
pdcu_request_latency_us_bucket{route="search",le="65536"} 2
pdcu_request_latency_us_bucket{route="search",le="262144"} 2
pdcu_request_latency_us_bucket{route="search",le="1048576"} 2
pdcu_request_latency_us_bucket{route="search",le="4194304"} 2
pdcu_request_latency_us_bucket{route="search",le="16777216"} 2
pdcu_request_latency_us_bucket{route="search",le="67108864"} 2
pdcu_request_latency_us_bucket{route="search",le="+Inf"} 2
pdcu_request_latency_us_sum{route="search"} 252
pdcu_request_latency_us_count{route="search"} 2
pdcu_request_latency_us_bucket{route="healthz",le="1"} 1
pdcu_request_latency_us_bucket{route="healthz",le="4"} 1
pdcu_request_latency_us_bucket{route="healthz",le="16"} 1
pdcu_request_latency_us_bucket{route="healthz",le="64"} 1
pdcu_request_latency_us_bucket{route="healthz",le="256"} 1
pdcu_request_latency_us_bucket{route="healthz",le="1024"} 1
pdcu_request_latency_us_bucket{route="healthz",le="4096"} 1
pdcu_request_latency_us_bucket{route="healthz",le="16384"} 1
pdcu_request_latency_us_bucket{route="healthz",le="65536"} 1
pdcu_request_latency_us_bucket{route="healthz",le="262144"} 1
pdcu_request_latency_us_bucket{route="healthz",le="1048576"} 1
pdcu_request_latency_us_bucket{route="healthz",le="4194304"} 1
pdcu_request_latency_us_bucket{route="healthz",le="16777216"} 1
pdcu_request_latency_us_bucket{route="healthz",le="67108864"} 1
pdcu_request_latency_us_bucket{route="healthz",le="+Inf"} 1
pdcu_request_latency_us_sum{route="healthz"} 0
pdcu_request_latency_us_count{route="healthz"} 1
pdcu_request_latency_us_bucket{route="metrics",le="1"} 0
pdcu_request_latency_us_bucket{route="metrics",le="4"} 0
pdcu_request_latency_us_bucket{route="metrics",le="16"} 0
pdcu_request_latency_us_bucket{route="metrics",le="64"} 0
pdcu_request_latency_us_bucket{route="metrics",le="256"} 0
pdcu_request_latency_us_bucket{route="metrics",le="1024"} 0
pdcu_request_latency_us_bucket{route="metrics",le="4096"} 0
pdcu_request_latency_us_bucket{route="metrics",le="16384"} 0
pdcu_request_latency_us_bucket{route="metrics",le="65536"} 0
pdcu_request_latency_us_bucket{route="metrics",le="262144"} 1
pdcu_request_latency_us_bucket{route="metrics",le="1048576"} 1
pdcu_request_latency_us_bucket{route="metrics",le="4194304"} 1
pdcu_request_latency_us_bucket{route="metrics",le="16777216"} 1
pdcu_request_latency_us_bucket{route="metrics",le="67108864"} 1
pdcu_request_latency_us_bucket{route="metrics",le="+Inf"} 1
pdcu_request_latency_us_sum{route="metrics"} 70000
pdcu_request_latency_us_count{route="metrics"} 1
pdcu_request_latency_us_bucket{route="other",le="1"} 0
pdcu_request_latency_us_bucket{route="other",le="4"} 0
pdcu_request_latency_us_bucket{route="other",le="16"} 0
pdcu_request_latency_us_bucket{route="other",le="64"} 1
pdcu_request_latency_us_bucket{route="other",le="256"} 1
pdcu_request_latency_us_bucket{route="other",le="1024"} 1
pdcu_request_latency_us_bucket{route="other",le="4096"} 1
pdcu_request_latency_us_bucket{route="other",le="16384"} 1
pdcu_request_latency_us_bucket{route="other",le="65536"} 1
pdcu_request_latency_us_bucket{route="other",le="262144"} 1
pdcu_request_latency_us_bucket{route="other",le="1048576"} 1
pdcu_request_latency_us_bucket{route="other",le="4194304"} 1
pdcu_request_latency_us_bucket{route="other",le="16777216"} 1
pdcu_request_latency_us_bucket{route="other",le="67108864"} 1
pdcu_request_latency_us_bucket{route="other",le="+Inf"} 2
pdcu_request_latency_us_sum{route="other"} 100000064
pdcu_request_latency_us_count{route="other"} 2
)golden";

constexpr std::string_view kReloadGolden = R"golden(# HELP pdcu_reload_attempts_total Content reloads attempted.
# TYPE pdcu_reload_attempts_total counter
pdcu_reload_attempts_total 3
# HELP pdcu_reload_success_total Content reloads that swapped in a new snapshot.
# TYPE pdcu_reload_success_total counter
pdcu_reload_success_total 1
# HELP pdcu_reload_failures_total Content reloads that kept the last-known-good snapshot.
# TYPE pdcu_reload_failures_total counter
pdcu_reload_failures_total 2
# HELP pdcu_reload_consecutive_failures Failed reloads since the last success.
# TYPE pdcu_reload_consecutive_failures gauge
pdcu_reload_consecutive_failures 1
# HELP pdcu_reload_last_ok Whether the most recent reload succeeded (1) or failed (0).
# TYPE pdcu_reload_last_ok gauge
pdcu_reload_last_ok 0
# HELP pdcu_reload_quarantined Content files quarantined by the last successful reload.
# TYPE pdcu_reload_quarantined gauge
pdcu_reload_quarantined 1
# HELP pdcu_reload_pages_rendered_last Pages re-rendered by the last successful reload.
# TYPE pdcu_reload_pages_rendered_last gauge
pdcu_reload_pages_rendered_last 5
# HELP pdcu_reload_files_parsed_last Content files the last successful reload read and parsed.
# TYPE pdcu_reload_files_parsed_last gauge
pdcu_reload_files_parsed_last 10
# HELP pdcu_reload_files_reused_last Content files the last successful reload took from its parse memo.
# TYPE pdcu_reload_files_reused_last gauge
pdcu_reload_files_reused_last 990
# HELP pdcu_reload_docs_tokenized_last Search documents the last successful reload tokenized.
# TYPE pdcu_reload_docs_tokenized_last gauge
pdcu_reload_docs_tokenized_last 4
# HELP pdcu_reload_docs_reused_last Search documents whose postings the last successful reload reused.
# TYPE pdcu_reload_docs_reused_last gauge
pdcu_reload_docs_reused_last 996
# HELP pdcu_reload_cache_entries_rebuilt_last Page cache entries the last successful reload built.
# TYPE pdcu_reload_cache_entries_rebuilt_last gauge
pdcu_reload_cache_entries_rebuilt_last 7
# HELP pdcu_reload_cache_entries_reused_last Page cache entries the last successful reload took over from the previous snapshot.
# TYPE pdcu_reload_cache_entries_reused_last gauge
pdcu_reload_cache_entries_reused_last 212
# HELP pdcu_reload_backoff_ms Current reload failure backoff in milliseconds (0 when healthy).
# TYPE pdcu_reload_backoff_ms gauge
pdcu_reload_backoff_ms 400
)golden";

constexpr std::string_view kSpansGolden = R"golden(# HELP pdcu_span_duration_us Duration of named internal spans (build phases, index builds) in microseconds.
# TYPE pdcu_span_duration_us histogram
pdcu_span_duration_us_bucket{span="search.build",le="1"} 0
pdcu_span_duration_us_bucket{span="search.build",le="4"} 0
pdcu_span_duration_us_bucket{span="search.build",le="16"} 0
pdcu_span_duration_us_bucket{span="search.build",le="64"} 0
pdcu_span_duration_us_bucket{span="search.build",le="256"} 0
pdcu_span_duration_us_bucket{span="search.build",le="1024"} 0
pdcu_span_duration_us_bucket{span="search.build",le="4096"} 0
pdcu_span_duration_us_bucket{span="search.build",le="16384"} 1
pdcu_span_duration_us_bucket{span="search.build",le="65536"} 1
pdcu_span_duration_us_bucket{span="search.build",le="262144"} 1
pdcu_span_duration_us_bucket{span="search.build",le="1048576"} 1
pdcu_span_duration_us_bucket{span="search.build",le="4194304"} 1
pdcu_span_duration_us_bucket{span="search.build",le="16777216"} 1
pdcu_span_duration_us_bucket{span="search.build",le="67108864"} 1
pdcu_span_duration_us_bucket{span="search.build",le="+Inf"} 1
pdcu_span_duration_us_sum{span="search.build"} 9000
pdcu_span_duration_us_count{span="search.build"} 1
pdcu_span_duration_us_bucket{span="site.parse",le="1"} 0
pdcu_span_duration_us_bucket{span="site.parse",le="4"} 0
pdcu_span_duration_us_bucket{span="site.parse",le="16"} 0
pdcu_span_duration_us_bucket{span="site.parse",le="64"} 0
pdcu_span_duration_us_bucket{span="site.parse",le="256"} 1
pdcu_span_duration_us_bucket{span="site.parse",le="1024"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="4096"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="16384"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="65536"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="262144"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="1048576"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="4194304"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="16777216"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="67108864"} 2
pdcu_span_duration_us_bucket{span="site.parse",le="+Inf"} 2
pdcu_span_duration_us_sum{span="site.parse"} 600
pdcu_span_duration_us_count{span="site.parse"} 2
)golden";

constexpr std::string_view kNetGolden = R"golden(# HELP pdcu_net_accepted_total Connections accepted, by reactor shard.
# TYPE pdcu_net_accepted_total counter
pdcu_net_accepted_total{shard="0"} 3
pdcu_net_accepted_total{shard="1"} 1
# HELP pdcu_net_connections_active Connections currently open on the reactor.
# TYPE pdcu_net_connections_active gauge
pdcu_net_connections_active 3
# HELP pdcu_net_connections_peak Highest concurrent connection count observed.
# TYPE pdcu_net_connections_peak gauge
pdcu_net_connections_peak 4
# HELP pdcu_net_requests_total Requests answered through the reactor hot path.
# TYPE pdcu_net_requests_total counter
pdcu_net_requests_total 42
# HELP pdcu_net_overload_total Connections rejected with the overload answer (503).
# TYPE pdcu_net_overload_total counter
pdcu_net_overload_total 1
# HELP pdcu_net_read_timeouts_total Connections that timed out mid-request (answered 408).
# TYPE pdcu_net_read_timeouts_total counter
pdcu_net_read_timeouts_total 1
# HELP pdcu_net_idle_closes_total Idle keep-alive connections reaped by the timeout wheel.
# TYPE pdcu_net_idle_closes_total counter
pdcu_net_idle_closes_total 1
# HELP pdcu_net_writev_calls_total Vectored writes issued on the response path.
# TYPE pdcu_net_writev_calls_total counter
pdcu_net_writev_calls_total 3
# HELP pdcu_net_partial_writes_total writev calls that could not flush the whole response.
# TYPE pdcu_net_partial_writes_total counter
pdcu_net_partial_writes_total 1
# HELP pdcu_net_write_errors_total Responses lost to a dead peer (EPIPE/ECONNRESET).
# TYPE pdcu_net_write_errors_total counter
pdcu_net_write_errors_total 1
)golden";

constexpr std::string_view kNetNoShardsGolden = R"golden(# HELP pdcu_net_accepted_total Connections accepted, by reactor shard.
# TYPE pdcu_net_accepted_total counter
pdcu_net_accepted_total{shard="0"} 2
# HELP pdcu_net_connections_active Connections currently open on the reactor.
# TYPE pdcu_net_connections_active gauge
pdcu_net_connections_active 2
# HELP pdcu_net_connections_peak Highest concurrent connection count observed.
# TYPE pdcu_net_connections_peak gauge
pdcu_net_connections_peak 2
# HELP pdcu_net_requests_total Requests answered through the reactor hot path.
# TYPE pdcu_net_requests_total counter
pdcu_net_requests_total 0
# HELP pdcu_net_overload_total Connections rejected with the overload answer (503).
# TYPE pdcu_net_overload_total counter
pdcu_net_overload_total 0
# HELP pdcu_net_read_timeouts_total Connections that timed out mid-request (answered 408).
# TYPE pdcu_net_read_timeouts_total counter
pdcu_net_read_timeouts_total 0
# HELP pdcu_net_idle_closes_total Idle keep-alive connections reaped by the timeout wheel.
# TYPE pdcu_net_idle_closes_total counter
pdcu_net_idle_closes_total 0
# HELP pdcu_net_writev_calls_total Vectored writes issued on the response path.
# TYPE pdcu_net_writev_calls_total counter
pdcu_net_writev_calls_total 0
# HELP pdcu_net_partial_writes_total writev calls that could not flush the whole response.
# TYPE pdcu_net_partial_writes_total counter
pdcu_net_partial_writes_total 0
# HELP pdcu_net_write_errors_total Responses lost to a dead peer (EPIPE/ECONNRESET).
# TYPE pdcu_net_write_errors_total counter
pdcu_net_write_errors_total 0
)golden";

constexpr std::string_view kBuildGolden = R"golden(# HELP pdcu_build_pages Pages produced by the build serving this process.
# TYPE pdcu_build_pages gauge
pdcu_build_pages 218
# HELP pdcu_build_pages_rendered Pages rendered (cache misses) by the last build.
# TYPE pdcu_build_pages_rendered gauge
pdcu_build_pages_rendered 2
# HELP pdcu_build_pages_reused Pages reused from the build cache by the last build.
# TYPE pdcu_build_pages_reused gauge
pdcu_build_pages_reused 216
# HELP pdcu_build_phase_us Wall time of each build pipeline phase, microseconds.
# TYPE pdcu_build_phase_us gauge
pdcu_build_phase_us{phase="parse"} 210
pdcu_build_phase_us{phase="render"} 980
pdcu_build_phase_us{phase="assemble"} 44
# HELP pdcu_build_activities_quarantined Content files the lenient loader quarantined before the last build.
# TYPE pdcu_build_activities_quarantined gauge
pdcu_build_activities_quarantined 1
)golden";

constexpr std::string_view kClusterGolden = R"golden(# HELP pdcu_cluster_requests_total Client requests proxied by the front tier.
# TYPE pdcu_cluster_requests_total counter
pdcu_cluster_requests_total 9
# HELP pdcu_cluster_retries_total Upstream attempts beyond each request's first.
# TYPE pdcu_cluster_retries_total counter
pdcu_cluster_retries_total 2
# HELP pdcu_cluster_failovers_total Requests served by a ring successor after their owner failed.
# TYPE pdcu_cluster_failovers_total counter
pdcu_cluster_failovers_total 1
# HELP pdcu_cluster_shed_total Requests routed around a degraded-epoch owner.
# TYPE pdcu_cluster_shed_total counter
pdcu_cluster_shed_total 1
# HELP pdcu_cluster_upstream_errors_total Upstream attempts that failed (connect, send, read, timeout, or 5xx).
# TYPE pdcu_cluster_upstream_errors_total counter
pdcu_cluster_upstream_errors_total 3
# HELP pdcu_cluster_exhausted_total Requests that failed every candidate replica (client saw an error).
# TYPE pdcu_cluster_exhausted_total counter
pdcu_cluster_exhausted_total 1
# HELP pdcu_cluster_probe_failures_total Health probes that failed.
# TYPE pdcu_cluster_probe_failures_total counter
pdcu_cluster_probe_failures_total 1
# HELP pdcu_cluster_ring_moves_total Sampled keys whose owner changed when the routable set shifted.
# TYPE pdcu_cluster_ring_moves_total counter
pdcu_cluster_ring_moves_total 7
# HELP pdcu_cluster_ring_nodes Replicas configured in the ring.
# TYPE pdcu_cluster_ring_nodes gauge
pdcu_cluster_ring_nodes 3
# HELP pdcu_cluster_routable_nodes Replicas currently considered routable by the front tier.
# TYPE pdcu_cluster_routable_nodes gauge
pdcu_cluster_routable_nodes 2
)golden";

/// The query cache's families after two misses and one hit.
constexpr std::string_view kQueryCacheGolden = R"golden(# HELP pdcu_search_cache_hits_total Search query cache hits.
# TYPE pdcu_search_cache_hits_total counter
pdcu_search_cache_hits_total 1
# HELP pdcu_search_cache_misses_total Search query cache misses.
# TYPE pdcu_search_cache_misses_total counter
pdcu_search_cache_misses_total 2
# HELP pdcu_search_cache_evictions_total Search query cache LRU evictions.
# TYPE pdcu_search_cache_evictions_total counter
pdcu_search_cache_evictions_total 0
# HELP pdcu_search_cache_entries Search queries currently cached.
# TYPE pdcu_search_cache_entries gauge
pdcu_search_cache_entries 2
)golden";

}  // namespace

TEST(ExpositionGolden, ServerMetrics) {
  server::ServerMetrics metrics;
  fill(metrics);
  EXPECT_EQ(metrics.render_text(), kServerGolden);
}

TEST(ExpositionGolden, ReloadMetrics) {
  server::ReloadMetrics metrics;
  fill(metrics);
  EXPECT_EQ(metrics.render_text(), kReloadGolden);
}

TEST(ExpositionGolden, SpanRegistry) {
  obs::SpanRegistry spans;
  EXPECT_EQ(spans.render_text(), "");
  fill(spans);
  EXPECT_EQ(spans.render_text(), kSpansGolden);
}

TEST(ExpositionGolden, NetMetrics) {
  pdcu::net::NetMetrics metrics;
  fill(metrics);
  EXPECT_EQ(metrics.render_text(), kNetGolden);
}

TEST(ExpositionGolden, NetMetricsWithoutShardsKeepsShardZero) {
  pdcu::net::NetMetrics metrics;
  metrics.record_accept(0);
  metrics.record_accept(0);
  EXPECT_EQ(metrics.render_text(), kNetNoShardsGolden);
}

TEST(ExpositionGolden, BuildStats) {
  EXPECT_EQ(build_stats().render_text(), kBuildGolden);
}

TEST(ExpositionGolden, ClusterMetrics) {
  pdcu::cluster::ClusterMetrics metrics;
  fill(metrics);
  EXPECT_EQ(metrics.render_text(), kClusterGolden);
}

TEST(ExpositionGolden, RouterComposesEveryFamilyInOrder) {
  const auto& repo = pdcu::core::Repository::builtin();
  server::Router router(pdcu::site::build_site(repo), repo);
  server::ServerMetrics metrics;
  server::HealthTracker health;
  server::ReloadMetrics reload;
  obs::SpanRegistry spans;
  pdcu::net::NetMetrics net;
  pdcu::rt::ThreadPool pool(2);
  fill(metrics);
  fill(reload);
  fill(spans);
  fill(net);
  router.set_metrics(&metrics);
  router.set_build_stats(build_stats());
  router.set_health(&health);
  router.set_reload_metrics(&reload);
  router.set_spans(&spans);
  router.set_net_metrics(&net);
  router.set_search_pool(&pool);

  const auto get = [&router](std::string target) {
    server::Request request;
    request.method = "GET";
    request.target = std::move(target);
    request.version = "HTTP/1.1";
    return router.handle(request);
  };
  ASSERT_EQ(get("/api/search?q=parallel").status, 200);
  ASSERT_EQ(get("/api/search?q=parallel").status, 200);
  ASSERT_EQ(get("/api/search?q=sorting").status, 200);

  const auto response = get("/metrics");
  ASSERT_EQ(response.status, 200);
  ASSERT_NE(response.header("content-type"), nullptr);
  EXPECT_EQ(*response.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  std::string expected;
  for (const std::string_view part :
       {kServerGolden, kBuildGolden, kReloadGolden, kSpansGolden, kNetGolden,
        kQueryCacheGolden}) {
    expected += part;
  }
  EXPECT_EQ(response.body, expected);
  EXPECT_TRUE(obs::lint_exposition(response.body).empty());
}
