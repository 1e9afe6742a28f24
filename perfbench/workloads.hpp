// The serving workloads' traffic plans: the request mix and the fixed
// open-loop rate latency is measured at. README.md explains why each
// workload exists and what it stresses.
#pragma once

#include <cstddef>
#include <cstdint>

#include "schedule.hpp"

namespace perfbench {

struct Plan {
  Traffic traffic;
  double rate = 1000.0;  ///< fixed open-loop rate, requests/s
};

/// The synthetic corpora are part of the workload, like the built-in site
/// of browse: `--seed` varies the traffic and the edits, not the documents
/// (a different corpus changes every posting list, and with it the cost of
/// the same query).
inline constexpr std::uint64_t kCorpusSeed = 42;

/// browse: the built-in 38-activity site, page=6:catalog=1:activity=2:
/// search=1 with Zipf(1.1) slugs; ~10% new connections, ~5% conditional.
inline Plan browse_plan() {
  Plan plan;
  plan.rate = 5000.0;
  return plan;
}

/// search_corpus: ~85% /api/search over a 20k-document synthetic corpus,
/// 1-3 Zipf-drawn vocabulary terms, ~20% with a cs2013:/tcpp: filter.
inline constexpr std::size_t kSearchCorpusDocs = 20'000;
inline Plan search_corpus_plan() {
  Plan plan;
  plan.traffic = Traffic{.page = 1.0, .catalog = 0.0, .activity = 0.5,
                         .search = 8.5, .max_terms = 3, .filter_share = 0.2};
  // Low utilization (~15% of capacity), so queueing behind heavy-tailed
  // queries does not amplify host noise in the p50.
  plan.rate = 500.0;
  return plan;
}

/// author_reload: browse-mix reads of a synthetic corpus served from disk
/// at a fixed rate while single-activity edits are reloaded beside them.
inline constexpr std::size_t kAuthorDocs = 1'000;
inline Plan author_reload_plan() {
  Plan plan;
  plan.rate = 500.0;
  return plan;
}

}  // namespace perfbench
