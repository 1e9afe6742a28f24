// The deterministic half of the load generator: given a seed, a target
// arrival rate, a traffic mix, and the served catalog's slugs, produce the
// complete request schedule up front — every request's *intended* send
// time, route, target path, and whether it rides a kept-alive connection
// or pays a cold connect.
//
// Everything downstream (the client, the latency accounting) treats this
// schedule as ground truth: a request that should have left at t is
// charged from t even if the generator was still waiting on an earlier
// response, which is what makes the harness coordinated-omission-safe.
// Two calls with the same options and slugs return byte-identical
// schedules, so a run is reproducible from its seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/support/expected.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::loadgen {

/// The route classes a scheduled request can exercise — the same classes
/// the server's /metrics breaks latency out by.
enum class Route {
  kPage,      ///< GET /activities/<slug>/          (cached HTML)
  kCatalog,   ///< GET /api/catalog.json            (one big JSON body)
  kActivity,  ///< GET /api/activities/<slug>.json  (small JSON body)
  kSearch,    ///< GET /api/search?q=<term>&limit=10 (BM25 query)
};

std::string_view route_name(Route route);

struct MixEntry {
  Route route = Route::kPage;
  double weight = 1.0;
};

/// Parses a traffic-mix spec: colon-separated route names with optional
/// weights, e.g. "page:catalog:search" (equal weights) or
/// "page=6:catalog=1:activity=2:search=1". Unknown routes and
/// non-positive weights are errors.
Expected<std::vector<MixEntry>> parse_mix(std::string_view text);

/// Renders a mix back to its canonical "route=weight:..." spelling.
std::string render_mix(const std::vector<MixEntry>& mix);

/// The default mix when none is given: page-heavy with a steady API and
/// search tail, roughly what a public education site sees.
std::vector<MixEntry> default_mix();

/// A search-dominated mix ("search=8:page=1:activity=1") for hammering
/// /api/search at corpus scale, where ranked queries are the cost center.
std::vector<MixEntry> search_mix();

/// Zipf-distributed ranks: P(rank k) proportional to 1/(k+1)^s over ranks
/// [0, n). Rank 0 is the most popular. Sampling is a binary search over a
/// precomputed cumulative table, deterministic given the Rng.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t size() const { return cumulative_.size(); }
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

struct ScheduleOptions {
  double rate = 100.0;      ///< target arrivals per second (open loop)
  double duration_s = 5.0;  ///< schedule horizon; ~rate*duration requests
  std::uint64_t seed = 42;
  double zipf_exponent = 1.1;    ///< slug/term popularity skew
  double keep_alive_ratio = 0.9; ///< P(request reuses its connection)
  std::vector<MixEntry> mix;     ///< empty => default_mix()
  /// Query vocabulary for the search route; empty => the built-in PDC
  /// lexicon. Point this at corpus::sample_query_terms(...) (or any term
  /// list) to drive searches that match a synthetic corpus — list order
  /// defines popularity rank for the Zipf draw.
  std::vector<std::string> search_terms;
};

struct ScheduledRequest {
  std::uint64_t offset_ns = 0;  ///< intended send time, relative to start
  Route route = Route::kPage;
  std::string target;           ///< origin-form request target
  bool fresh_connection = false; ///< close and reconnect before sending
};

/// Builds the full open-loop schedule: arrivals at a fixed 1/rate spacing,
/// routes drawn from the weighted mix, slugs drawn Zipf-distributed from
/// `slugs` (catalog order defines popularity rank), search terms drawn
/// Zipf-distributed from a built-in PDC lexicon. `slugs` must be
/// non-empty. Deterministic in (options, slugs).
std::vector<ScheduledRequest> build_schedule(
    const ScheduleOptions& options, const std::vector<std::string>& slugs);

}  // namespace pdcu::loadgen
