// Seeded request schedules. Everything a serving workload sends — when,
// which route, which target, whether it opens a new connection, whether it
// is a conditional GET — is generated up front from the seed and the
// served content's slugs, vocabulary and filters, so two runs with the same
// seed send byte-identical traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t { kPage, kCatalog, kActivity, kSearch };

/// The traffic mix of one workload.
struct Traffic {
  double page = 6.0;  ///< route weights
  double catalog = 1.0;
  double activity = 2.0;
  double search = 1.0;
  double zipf = 1.1;               ///< slug and query-term popularity skew
  double fresh_connection = 0.10;  ///< share of requests on a new connection
  double conditional = 0.05;  ///< share of cached-route GETs with If-None-Match
  std::size_t max_terms = 1;  ///< query terms, uniform in [1, max_terms]
  double filter_share = 0.0;  ///< share of queries with a taxonomy filter
};

/// What the served content offers to ask for. List order is popularity
/// order for the Zipf draws.
struct Inputs {
  std::vector<std::string> slugs;
  std::vector<std::string> terms;
  std::vector<std::string> filters;  ///< e.g. "cs2013:PD_2"
};

struct Planned {
  std::uint64_t due_ns = 0;  ///< intended send time, from the phase start
  Kind kind = Kind::kPage;
  bool fresh = false;        ///< close the connection and open a new one
  bool conditional = false;  ///< send If-None-Match with the current ETag
  std::string target;
};

/// About rate * seconds requests at a fixed interval. Pure function of its
/// arguments.
std::vector<Planned> make_schedule(const Traffic& traffic, const Inputs& inputs,
                                   double rate, double seconds,
                                   std::uint64_t seed);

/// Percent-encodes everything but unreserved characters.
std::string url_encode(const std::string& text);

/// The query text of a search target ("a b cs2013:PD_2"); empty otherwise.
std::string search_text(const Planned& request);

/// A canonical byte dump of a schedule (for reproducibility checks).
std::string dump(const std::vector<Planned>& schedule);

}  // namespace perfbench
