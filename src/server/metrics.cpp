#include "pdcu/server/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "pdcu/obs/exposition.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::server {

namespace {

/// CAS loop for atomic min/max (no fetch_min/fetch_max until C++26).
template <typename Compare>
void update_extreme(std::atomic<std::uint64_t>& extreme, std::uint64_t value,
                    Compare better) {
  std::uint64_t current = extreme.load(std::memory_order_relaxed);
  while (better(value, current) &&
         !extreme.compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

constexpr std::array<std::string_view, kRouteCount> kRouteLabels = {
    "page", "catalog", "activity", "search", "healthz", "metrics", "other"};

constexpr std::array<std::string_view, 5> kClassLabels = {"1xx", "2xx", "3xx",
                                                          "4xx", "5xx"};

}  // namespace

std::string_view route_label(Route route) {
  return kRouteLabels[static_cast<std::size_t>(route)];
}

Route route_for_path(std::string_view path) {
  if (path == "/healthz") return Route::kHealthz;
  if (path == "/metrics") return Route::kMetrics;
  if (path == "/api/search") return Route::kSearch;
  if (path == "/api/catalog.json") return Route::kCatalog;
  if (strings::starts_with(path, "/api/activities/")) return Route::kActivity;
  return Route::kPage;
}

void ServerMetrics::record(Route route, int status, std::size_t bytes_sent,
                           std::chrono::microseconds latency) {
  const int status_class = status / 100;
  PerRoute& slot = per_route_[static_cast<std::size_t>(route)];
  if (status_class >= 1 && status_class <= 5) {
    const auto index = static_cast<std::size_t>(status_class - 1);
    by_class_[index].fetch_add(1, std::memory_order_relaxed);
    slot.by_class[index].fetch_add(1, std::memory_order_relaxed);
  }
  total_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes_sent, std::memory_order_relaxed);
  const auto us = static_cast<std::uint64_t>(latency.count());
  slot.latency.record(us);
  update_extreme(latency_min_us_, us, std::less<>{});
  update_extreme(latency_max_us_, us, std::greater<>{});
  // The sum is published last, with release: a reader that acquires the
  // sum therefore sees the count/min/max updates of every request the sum
  // includes (see latency_stats()).
  latency_total_us_.fetch_add(us, std::memory_order_release);
}

std::uint64_t ServerMetrics::requests_total() const {
  return total_.load(std::memory_order_relaxed);
}

std::uint64_t ServerMetrics::requests_by_class(int status_class) const {
  if (status_class < 1 || status_class > 5) return 0;
  return by_class_[static_cast<std::size_t>(status_class - 1)].load(
      std::memory_order_relaxed);
}

std::uint64_t ServerMetrics::requests_by_route(Route route,
                                               int status_class) const {
  if (status_class < 1 || status_class > 5) return 0;
  return per_route_[static_cast<std::size_t>(route)]
      .by_class[static_cast<std::size_t>(status_class - 1)]
      .load(std::memory_order_relaxed);
}

std::uint64_t ServerMetrics::bytes_sent_total() const {
  return bytes_.load(std::memory_order_relaxed);
}

ServerMetrics::LatencyStats ServerMetrics::latency_stats() const {
  LatencyStats stats;
  // One snapshot, sum first: the acquire pairs with record()'s release so
  // the count read next covers at least every request in the sum, keeping
  // the derived mean inside [min, max] even mid-record.
  stats.sum_us = latency_total_us_.load(std::memory_order_acquire);
  stats.count = total_.load(std::memory_order_relaxed);
  const std::uint64_t min = latency_min_us_.load(std::memory_order_relaxed);
  stats.min_us = min == UINT64_MAX ? 0 : min;
  stats.max_us = latency_max_us_.load(std::memory_order_relaxed);
  if (stats.count == 0) return stats;
  stats.mean_us = static_cast<double>(stats.sum_us) /
                  static_cast<double>(stats.count);
  // Belt and braces: a request counted but not yet summed can still drag
  // the quotient below the true mean; clamp so the reported mean never
  // escapes the [min, max] envelope.
  stats.mean_us =
      std::min(std::max(stats.mean_us, static_cast<double>(stats.min_us)),
               static_cast<double>(stats.max_us));
  return stats;
}

std::string ServerMetrics::render_text() const {
  using Type = obs::Exposition::Type;
  const LatencyStats latency = latency_stats();
  obs::Exposition out;
  out.counter("pdcu_requests_total",
              "Requests answered, including connection-level errors.",
              requests_total());
  out.family("pdcu_requests_by_class_total", Type::kCounter,
             "Requests answered, by status class.");
  for (std::size_t cls = 0; cls < 5; ++cls) {
    out.sample({{"class", kClassLabels[cls]}},
               by_class_[cls].load(std::memory_order_relaxed));
  }
  out.family("pdcu_requests_by_route_total", Type::kCounter,
             "Requests answered, by route and status class.");
  for (std::size_t route = 0; route < kRouteCount; ++route) {
    for (std::size_t cls = 0; cls < 5; ++cls) {
      out.sample({{"route", kRouteLabels[route]}, {"class", kClassLabels[cls]}},
                 per_route_[route].by_class[cls].load(
                     std::memory_order_relaxed));
    }
  }
  out.counter("pdcu_bytes_sent_total", "Bytes written to client sockets.",
              bytes_sent_total());
  out.counter("pdcu_write_errors_total",
              "Responses lost to a failed socket write (EPIPE, ECONNRESET).",
              write_errors_total());
  char mean[32];
  std::snprintf(mean, sizeof mean, "%.1f", latency.mean_us);
  out.family("pdcu_latency_us", Type::kGauge,
             "Aggregate request latency in microseconds (min, mean, max over "
             "the server's lifetime).")
      .sample({{"stat", "min"}}, latency.min_us)
      .sample({{"stat", "mean"}}, std::string_view(mean))
      .sample({{"stat", "max"}}, latency.max_us);
  out.family("pdcu_request_latency_us", Type::kHistogram,
             "Request handling latency in microseconds, by route.");
  for (std::size_t route = 0; route < kRouteCount; ++route) {
    out.histogram({{"route", kRouteLabels[route]}},
                  per_route_[route].latency.snapshot());
  }
  return out.take();
}

}  // namespace pdcu::server
