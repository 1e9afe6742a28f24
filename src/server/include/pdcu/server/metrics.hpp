// Lock-free serving counters with per-route resolution: request counts by
// route and status class, bytes on the wire, latency min/mean/max, and one
// log-bucketed obs::Histogram of handling latency per route. record() is a
// handful of relaxed atomic operations so it sits on the per-request hot
// path; render_text() lists promtool-clean /metrics families through
// obs::Exposition (counters suffixed _total, cumulative
// pdcu_request_latency_us_bucket{route=...,le=...} series ending in +Inf).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "pdcu/obs/histogram.hpp"

namespace pdcu::server {

/// The serving routes metrics are labeled with. kOther covers traffic that
/// never reached the router: connection-level 400/408/431/503 answers.
enum class Route : std::uint8_t {
  kPage = 0,   ///< cached site pages (and API 404s)
  kCatalog,    ///< /api/catalog.json
  kActivity,   ///< /api/activities/<slug>.json
  kSearch,     ///< /api/search
  kHealthz,    ///< /healthz
  kMetrics,    ///< /metrics
  kOther,      ///< no parsed request (connection-level errors)
};

inline constexpr std::size_t kRouteCount = 7;

/// The exposition label for a route ("page", "catalog", ...).
std::string_view route_label(Route route);

/// Classifies a request path into its route tag.
Route route_for_path(std::string_view path);

class ServerMetrics {
 public:
  /// Records one finished request: the route it hit, its response status,
  /// bytes written to the socket (head + body), and wall-clock handling
  /// latency.
  void record(Route route, int status, std::size_t bytes_sent,
              std::chrono::microseconds latency);

  std::uint64_t requests_total() const;
  /// Count for one status class; status_class is 1..5 (1xx..5xx).
  std::uint64_t requests_by_class(int status_class) const;
  std::uint64_t requests_by_route(Route route, int status_class) const;
  std::uint64_t bytes_sent_total() const;

  /// Counts a response the peer never fully received: the socket write
  /// failed mid-flight (EPIPE, ECONNRESET, ...). Exposed as
  /// pdcu_write_errors_total so a spike of dead-peer writes is visible
  /// instead of silently folded into "sent".
  void record_write_error() {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t write_errors_total() const {
    return write_errors_.load(std::memory_order_relaxed);
  }

  /// One consistent view of the aggregate latency counters. record()
  /// publishes the running sum last (release) and the snapshot loads it
  /// first (acquire), so every microsecond in `sum` comes from a request
  /// whose count/min/max updates are already visible: the mean can never
  /// exceed the max (the torn-read the old per-field getters allowed).
  struct LatencyStats {
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t min_us = 0;
    std::uint64_t max_us = 0;
    double mean_us = 0.0;  ///< clamped into [min_us, max_us]
  };
  LatencyStats latency_stats() const;

  /// Latency stats in microseconds; min and max are 0 before any request.
  std::uint64_t latency_min_us() const { return latency_stats().min_us; }
  std::uint64_t latency_max_us() const { return latency_stats().max_us; }
  double latency_mean_us() const { return latency_stats().mean_us; }

  /// The per-route latency histogram (for percentile queries in tests and
  /// tools; /metrics renders all of them).
  const obs::Histogram& route_latency(Route route) const {
    return per_route_[static_cast<std::size_t>(route)].latency;
  }

  /// Prometheus text exposition (the body served at /metrics).
  std::string render_text() const;

 private:
  struct PerRoute {
    std::array<std::atomic<std::uint64_t>, 5> by_class{};
    obs::Histogram latency;
  };

  std::array<PerRoute, kRouteCount> per_route_{};
  std::array<std::atomic<std::uint64_t>, 5> by_class_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> latency_total_us_{0};
  std::atomic<std::uint64_t> latency_min_us_{UINT64_MAX};
  std::atomic<std::uint64_t> latency_max_us_{0};
};

}  // namespace pdcu::server
