// pdcu::loadgen — an open-loop, coordinated-omission-safe HTTP load
// generator for the pdcu server.
//
// Closed-loop load tools (send, wait, send again) silently stop measuring
// whenever the server stalls: the requests that *would* have arrived
// during the stall are never sent, so the stall barely shows in the
// percentiles. This harness is open-loop instead: the whole request
// schedule — arrival times included — is fixed up front at the target
// rate, and every request's latency is measured from its *intended* send
// time. If the server stalls for 200 ms, every request scheduled inside
// that window is charged the wait, and the p99 says so.
//
// One thread multiplexes every connection over epoll (epoll_client.cpp),
// so --connections can climb to tens of thousands. Each busy connection
// steps one server::ClientExchange, the client connection the front tier
// and fetch_once step too. Connection c walks schedule indices c, c+N, ...
// in intended-time order and never skips a request it is late for: the
// lateness is the coordinated-omission wait and belongs in the recorded
// latency.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/obs/histogram.hpp"
#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/server/client.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  unsigned connections = 4;  ///< connections walking the schedule
  std::chrono::milliseconds timeout{2000};  ///< per-exchange I/O timeout
  ScheduleOptions schedule;  ///< rate, duration, seed, zipf, mix
};

struct Result {
  double target_rate = 0.0;    ///< what the schedule asked for
  double achieved_rate = 0.0;  ///< completed responses / wall seconds
  double wall_s = 0.0;         ///< first intended send to last response
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;  ///< full responses read, any status
  std::uint64_t status_2xx = 0;
  std::uint64_t status_3xx = 0;
  std::uint64_t status_4xx = 0;
  std::uint64_t status_5xx = 0;
  std::uint64_t connect_errors = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t read_errors = 0;
  std::uint64_t timeouts = 0;
  /// Latencies in microseconds, measured from each request's intended
  /// send time (coordinated-omission-safe).
  obs::Histogram::Snapshot latency_us;
  std::uint64_t max_latency_us = 0;
  /// Most connections simultaneously open during the run.
  std::uint64_t peak_connections = 0;

  std::uint64_t errors_total() const {
    return connect_errors + send_errors + read_errors + timeouts;
  }

  /// The no-silent-gaps invariant: every scheduled request lands in
  /// exactly one bucket — completed, or one of the error counters. False
  /// means the generator dropped requests from its own accounting (the
  /// failure mode that makes a dead server look like a fast one).
  bool fully_accounted() const {
    return completed + errors_total() == scheduled;
  }
};

/// Drives a prebuilt schedule against host:port. Blocks until every
/// scheduled request has been attempted.
Result run(const Options& options,
           const std::vector<ScheduledRequest>& schedule);

/// Fetches the served catalog's slugs, builds the schedule from
/// options.schedule, and runs it. Fails if the server is unreachable or
/// serves an empty catalog.
Expected<Result> run_against(const Options& options);

/// One framed reply of fetch_once.
using Reply = server::ClientReply;

/// One GET over a fresh "Connection: close" server::ClientExchange, stepped
/// by server::poll_until_done. `timeout` bounds the whole exchange,
/// connect included. For one-shot reads (the catalog, a /metrics scrape),
/// not for load.
Expected<Reply> fetch_once(const std::string& host, std::uint16_t port,
                           const std::string& target,
                           std::chrono::milliseconds timeout);

/// Fetches /api/catalog.json and returns the slugs in catalog order (which
/// the Zipf sampler treats as popularity order). A non-200 answer fails
/// with its status.
Expected<std::vector<std::string>> fetch_catalog_slugs(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout);

/// Renders a Result as one BENCH-schema JSON object named "serve" (see
/// bench_json.hpp).
std::string render_result_json(const Result& result, const Options& options);

}  // namespace pdcu::loadgen
