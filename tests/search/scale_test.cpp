// Corpus-scale property suite. The contract under test: every execution
// strategy — exhaustive scoring, MaxScore with block-max early termination,
// sharded execution across a thread pool — returns the *identical* top-k:
// same documents, same scores (bit-identical doubles), same order. Early
// termination that is only "approximately right" would silently corrupt
// ranking; these properties are what let MaxScore be the default.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"

namespace search = pdcu::search;
namespace corpus = pdcu::search::corpus;
namespace core = pdcu::core;

namespace {

struct Fixture {
  core::Repository repo;
  search::SearchIndex index;
};

/// One cached fixture per corpus size so the suite builds each corpus once.
const Fixture& fixture(std::size_t docs) {
  static std::vector<std::pair<std::size_t, Fixture>> cache;
  for (const auto& [size, fix] : cache) {
    if (size == docs) return fix;
  }
  auto repo = corpus::synthetic_repository({docs, 42});
  auto index = search::SearchIndex::build(repo);
  cache.push_back({docs, Fixture{std::move(repo), std::move(index)}});
  return cache.back().second;
}

/// The adversarial query set: stopword-heavy (every term matches most
/// documents, bounds barely prune), single rare term (tiny posting list),
/// repeated hot terms, filter-only browse, filtered ranked queries, and a
/// nonsense term that matches nothing.
std::vector<std::string> adversarial_queries() {
  return {
      "the and of parallel",                       // stopword-heavy
      "gustafson",                                 // single rare term
      "parallel parallel parallel",                // duplicate hot term
      "parallel processor sorting message network", // many hot terms
      "amdahl speedup",                            // mixed rarity
      "course:CS1",                                // filter-only browse
      "parallel sorting course:CS1",               // ranked + filter
      "sorting sense:touch course:CS1",            // ranked + two filters
      "xyzzyplugh",                                // matches nothing
  };
}

void expect_same_hits(const std::vector<search::Hit>& expected,
                      const std::vector<search::Hit>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].doc, actual[i].doc) << label << " hit " << i;
    EXPECT_EQ(expected[i].slug, actual[i].slug) << label << " hit " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " hit " << i;
  }
}

std::vector<search::Hit> run(const Fixture& fix, const std::string& input,
                             search::SearchOptions options) {
  return fix.index.search(search::parse_query(input), &fix.repo.index(),
                          options);
}

}  // namespace

TEST(SearchScale, MaxScoreMatchesExhaustiveOnSyntheticCorpora) {
  for (const std::size_t docs : {512u, 2048u}) {
    const auto& fix = fixture(docs);
    for (const auto& query : adversarial_queries()) {
      for (const std::size_t limit : {1u, 3u, 10u, 100u}) {
        search::SearchOptions exhaustive{.limit = limit};
        exhaustive.algo = search::SearchOptions::Algo::kExhaustive;
        search::SearchOptions maxscore{.limit = limit};
        maxscore.algo = search::SearchOptions::Algo::kMaxScore;
        expect_same_hits(run(fix, query, exhaustive),
                         run(fix, query, maxscore),
                         query + " limit=" + std::to_string(limit) +
                             " docs=" + std::to_string(docs));
      }
    }
  }
}

TEST(SearchScale, MaxScoreMatchesExhaustiveOnCuratedCorpus) {
  // The real 38-activity curation: small enough that every block is
  // partial, which exercises the final-short-block bound path.
  const auto& repo = core::Repository::builtin();
  const auto index = search::SearchIndex::build(repo);
  for (const auto& input :
       {"sorting", "message passing network", "students cards parallel"}) {
    const auto query = search::parse_query(input);
    search::SearchOptions exhaustive;
    exhaustive.algo = search::SearchOptions::Algo::kExhaustive;
    search::SearchOptions maxscore;
    maxscore.algo = search::SearchOptions::Algo::kMaxScore;
    expect_same_hits(index.search(query, &repo.index(), exhaustive),
                     index.search(query, &repo.index(), maxscore), input);
  }
}

TEST(SearchScale, ShardedExecutionMatchesSerial) {
  const auto& fix = fixture(2048);
  pdcu::rt::ThreadPool pool(4);
  for (const auto& query : adversarial_queries()) {
    search::SearchOptions serial{.limit = 10};
    search::SearchOptions sharded{.limit = 10};
    sharded.pool = &pool;
    sharded.min_shard_docs = 64;  // force many shards on 2048 docs
    expect_same_hits(run(fix, query, serial), run(fix, query, sharded),
                     "sharded " + query);
  }
}

TEST(SearchScale, ShardBoundaryPlacementDoesNotChangeResults) {
  // Different min_shard_docs values cut the doc range differently; the
  // merged top-k must not depend on where the cuts fall.
  const auto& fix = fixture(512);
  pdcu::rt::ThreadPool pool(3);
  const std::string query = "parallel sorting message";
  search::SearchOptions serial{.limit = 25};
  const auto expected = run(fix, query, serial);
  for (const std::size_t min_docs : {16u, 100u, 250u}) {
    search::SearchOptions sharded{.limit = 25};
    sharded.pool = &pool;
    sharded.min_shard_docs = min_docs;
    expect_same_hits(expected, run(fix, query, sharded),
                     "min_shard_docs=" + std::to_string(min_docs));
  }
}

TEST(SearchScale, TieBreakIsScoreDescThenDocAsc) {
  // Three byte-identical documents (identical lengths, identical term
  // frequencies) tie exactly; the ranking must order them by ascending
  // document id, under both scorers and any limit.
  std::vector<search::DocEntry> docs;
  for (int d = 0; d < 3; ++d) {
    search::DocEntry doc;
    doc.slug = "tie-" + std::to_string(d);
    doc.title = "pivot";
    doc.body = "pivot text";
    doc.len_title = 1;
    doc.len_body = 2;
    docs.push_back(doc);
  }
  // A fourth document where the term is body-only, so it scores strictly
  // lower than the three title matches.
  search::DocEntry weak;
  weak.slug = "tie-weak";
  weak.title = "other";
  weak.body = "pivot mentioned once";
  weak.len_title = 1;
  weak.len_body = 3;
  docs.push_back(weak);

  std::vector<search::TermPostings> terms;
  search::TermPostings pivot;
  pivot.term = "pivot";
  pivot.postings = {{0, 1, 0, 1}, {1, 1, 0, 1}, {2, 1, 0, 1}, {3, 0, 0, 1}};
  terms.push_back(pivot);

  auto index = search::SearchIndex::from_parts(std::move(docs),
                                               std::move(terms));
  ASSERT_TRUE(index.has_value()) << index.error().message;
  const auto query = search::parse_query("pivot");

  for (const auto algo : {search::SearchOptions::Algo::kExhaustive,
                          search::SearchOptions::Algo::kMaxScore}) {
    for (const std::size_t limit : {2u, 4u}) {
      search::SearchOptions options{.limit = limit};
      options.algo = algo;
      const auto hits = index.value().search(query, nullptr, options);
      ASSERT_EQ(hits.size(), limit);
      for (std::size_t i = 0; i < std::min<std::size_t>(limit, 3); ++i) {
        EXPECT_EQ(hits[i].doc, i);  // ties resolve to ascending doc id
      }
      if (limit == 4) {
        EXPECT_EQ(hits[3].slug, "tie-weak");
        EXPECT_LT(hits[3].score, hits[0].score);
      }
    }
  }
}

TEST(SearchScale, BlockBoundsDominateEveryPostingContribution) {
  // The safety invariant behind early termination: every stored term upper
  // bound must be >= the exact contribution of each of its postings. If a
  // bound ever under-estimated, MaxScore could skip a true top-k document.
  const auto& fix = fixture(512);
  const auto& terms = fix.index.terms();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    const double term_bound = fix.index.term_max_contribution(t);
    for (const search::Posting posting : terms[t].postings) {
      const double exact = fix.index.posting_contribution(t, posting);
      ASSERT_LE(exact, term_bound)
          << terms[t].term << " doc " << posting.doc;
    }
  }
}

TEST(SearchScale, FilterCacheDoesNotChangeResults) {
  // Memoized filter masks must be invisible to ranking: every adversarial
  // query returns the identical top-k with and without a FilterCache, on
  // the first (cold, computing) pass and the second (warm, borrowed) pass.
  const auto& fix = fixture(512);
  search::FilterCache filter_cache;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& query : adversarial_queries()) {
      search::SearchOptions plain{.limit = 10};
      search::SearchOptions cached{.limit = 10};
      cached.filter_cache = &filter_cache;
      expect_same_hits(run(fix, query, plain), run(fix, query, cached),
                       "filter_cache pass " + std::to_string(pass) + " " +
                           query);
    }
  }
  EXPECT_GT(filter_cache.size(), 0u);
}

TEST(SearchScale, FilterCacheComputesEachKeyOnce) {
  search::FilterCache cache;
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    search::FilterCache::Entry entry;
    entry.docs = {1, 2, 3};
    entry.mask = {0, 1, 1, 1};
    return entry;
  };
  const auto first = cache.get("course", "CS1", compute);
  const auto again = cache.get("course", "CS1", compute);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(first.get(), again.get());  // same shared entry, not a copy
  EXPECT_EQ(again->docs.size(), 3u);

  // A different term under the same taxonomy is a distinct key, as is the
  // same term under a different taxonomy (the key embeds both).
  (void)cache.get("course", "CS2", compute);
  (void)cache.get("sense", "CS1", compute);
  EXPECT_EQ(computed, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SearchScale, SnippetsOffLeavesRankingIntactAndSnippetsEmpty) {
  const auto& fix = fixture(512);
  for (const auto& query : adversarial_queries()) {
    search::SearchOptions with{.limit = 10};
    search::SearchOptions without{.limit = 10};
    without.snippets = false;
    const auto expected = run(fix, query, with);
    const auto actual = run(fix, query, without);
    expect_same_hits(expected, actual, "snippets off " + query);
    for (const auto& hit : actual) {
      EXPECT_TRUE(hit.snippet.text.empty()) << query;
      EXPECT_TRUE(hit.snippet.highlights.empty()) << query;
    }
  }
}

TEST(SearchScale, PayloadRoundTripsThroughFromPayload) {
  const auto& fix = fixture(512);
  auto copy =
      search::SearchIndex::from_payload(std::string(fix.index.payload()));
  ASSERT_TRUE(copy.has_value()) << copy.error().message;
  EXPECT_TRUE(copy.value() == fix.index);
}
