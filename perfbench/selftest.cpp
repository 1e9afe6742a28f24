// The benchmark's own tests: its percentiles, the reproducibility of its
// inputs, the search_corpus query space, and the metric catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "metrics.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/server/router.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Inputs corpus_inputs(std::uint64_t seed, std::size_t docs) {
  Inputs inputs;
  for (const auto& activity :
       pdcu::search::corpus::synthetic_activities({docs, seed})) {
    inputs.slugs.push_back(activity.slug);
  }
  inputs.terms = pdcu::search::corpus::vocabulary();
  inputs.filters = {"cs2013:PD_1", "cs2013:PD_2", "tcpp:A_Sorting"};
  return inputs;
}

TEST(Percentile, AgreesWithSortedSampleOracle) {
  Rng rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<double> samples(n);
    for (auto& s : samples) s = std::floor(rng.uniform() * 1e6) / 7.0;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(n)));
      const double expected = sorted[std::max<std::size_t>(rank, 1) - 1];
      std::vector<double> copy = samples;
      EXPECT_EQ(percentile(copy, q), expected) << "n=" << n << " q=" << q;
    }
  }
}

TEST(Percentile, IsAMeasuredValueNotABucketEdge) {
  std::vector<double> samples = {3.0, 1000.0, 1025.0, 1500.0, 2047.5};
  EXPECT_EQ(percentile(samples, 0.99), 2047.5);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0.0);
}

TEST(Schedule, SameSeedGivesByteIdenticalInputs) {
  const Plan plan = search_corpus_plan();
  const auto a = make_schedule(plan.traffic, corpus_inputs(11, 500), plan.rate,
                               2.0, 11);
  const auto b = make_schedule(plan.traffic, corpus_inputs(11, 500), plan.rate,
                               2.0, 11);
  const auto c = make_schedule(plan.traffic, corpus_inputs(12, 500), plan.rate,
                               2.0, 12);
  EXPECT_EQ(static_cast<double>(a.size()), plan.rate * 2.0);
  EXPECT_EQ(dump(a), dump(b));
  EXPECT_NE(dump(a), dump(c));
  const Plan browse = browse_plan();
  Inputs site;
  site.slugs = {"a", "b", "c"};
  site.terms = {"parallel", "sorting"};
  EXPECT_EQ(dump(make_schedule(browse.traffic, site, browse.rate, 1.0, 3)),
            dump(make_schedule(browse.traffic, site, browse.rate, 1.0, 3)));
}

TEST(Schedule, BrowseMixMatchesItsShares) {
  const Plan plan = browse_plan();
  Inputs site;
  for (int i = 0; i < 38; ++i) site.slugs.push_back("s" + std::to_string(i));
  site.terms = {"parallel", "sorting"};
  const auto schedule = make_schedule(plan.traffic, site, plan.rate, 20.0, 5);
  std::size_t pages = 0, fresh = 0, conditional = 0;
  for (const auto& r : schedule) {
    pages += r.kind == Kind::kPage;
    fresh += r.fresh;
    conditional += r.conditional;
  }
  const double n = static_cast<double>(schedule.size());
  EXPECT_NEAR(static_cast<double>(pages) / n, 0.6, 0.03);
  EXPECT_NEAR(static_cast<double>(fresh) / n, 0.10, 0.02);
  EXPECT_NEAR(static_cast<double>(conditional) / n, 0.045, 0.02);
}

TEST(Schedule, SearchTextRoundTripsThroughTheTarget) {
  Planned request;
  request.kind = Kind::kSearch;
  request.target = "/api/search?q=" + url_encode("race cs2013:PD_2 a+b") +
                   "&limit=10";
  EXPECT_EQ(search_text(request), "race cs2013:PD_2 a+b");
}

TEST(SearchCorpus, QuerySpaceFarExceedsTheQueryCache) {
  // The distinct normalized queries of one fixed-rate phase, keyed the way
  // the router's cache keys them (terms, then filters).
  const Plan plan = search_corpus_plan();
  const auto schedule = make_schedule(plan.traffic, corpus_inputs(1, 2000),
                                      plan.rate, 5.0, 1);
  std::set<std::string> keys;
  std::size_t searches = 0;
  for (const auto& r : schedule) {
    if (r.kind != Kind::kSearch) continue;
    ++searches;
    const auto query = pdcu::search::parse_query(search_text(r));
    std::string key;
    for (const auto& term : query.terms) key += term + ' ';
    key += '|';
    for (const auto& filter : query.filters) {
      key += filter.taxonomy + ':' + filter.value + ' ';
    }
    keys.insert(key);
  }
  EXPECT_GT(static_cast<double>(searches) / static_cast<double>(schedule.size()),
            0.80);
  EXPECT_GT(keys.size(), 2 * pdcu::server::Router::kQueryCacheEntries);
}

TEST(Catalog, EveryLayerMetricNamesAnEndToEndMetricAndWorkload) {
  std::set<std::string_view> end_to_end;
  for (const auto& m : kEndToEnd) end_to_end.insert(m.name);
  const std::set<std::string_view> workloads(kWorkloads.begin(),
                                             kWorkloads.end());
  std::set<std::string_view> names;
  for (const auto& m : kPerLayer) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    EXPECT_TRUE(m.moves == "none" || end_to_end.count(m.moves))
        << m.name << " moves " << m.moves;
    EXPECT_TRUE(workloads.count(m.workload)) << m.name;
    EXPECT_FALSE(end_to_end.count(m.name)) << m.name;
  }
  EXPECT_TRUE(end_to_end.count("setup_s"));
}

}  // namespace
}  // namespace perfbench
