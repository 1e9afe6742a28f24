// Unit tests for the inverted index: parallel-vs-serial build equivalence,
// BM25 field-boosted ranking, taxonomy filters, and determinism.
#include "pdcu/search/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/support/rng.hpp"

namespace search = pdcu::search;
namespace core = pdcu::core;

namespace {

const search::SearchIndex& index() {
  static const search::SearchIndex kIndex =
      search::SearchIndex::build(core::Repository::builtin());
  return kIndex;
}

std::vector<search::Hit> run(const std::string& input,
                             std::size_t limit = 10) {
  return index().search(search::parse_query(input),
                        &core::Repository::builtin().index(), limit);
}

}  // namespace

TEST(SearchIndex, IndexesEveryActivity) {
  EXPECT_EQ(index().doc_count(),
            core::Repository::builtin().activities().size());
  EXPECT_GT(index().term_count(), 500u);
}

TEST(SearchIndex, ParallelBuildMatchesSerialBuild) {
  pdcu::rt::ThreadPool pool(4);
  const auto parallel =
      search::SearchIndex::build(core::Repository::builtin(), &pool);
  EXPECT_TRUE(parallel == index());
}

TEST(SearchIndex, PostingsAreSortedAndDeduplicated) {
  for (const auto& entry : index().terms()) {
    ASSERT_FALSE(entry.postings.empty()) << entry.term;
    for (std::size_t i = 1; i < entry.postings.size(); ++i) {
      ASSERT_LT(entry.postings[i - 1].doc, entry.postings[i].doc)
          << entry.term;
    }
  }
}

TEST(SearchIndex, TitleMatchOutranksBodyMatch) {
  // "sorting" appears in the ParallelCardSort/ParallelRadixSort titles and
  // in many bodies; the title matches must rank first.
  const auto hits = run("sorting");
  ASSERT_GE(hits.size(), 2u);
  EXPECT_TRUE(hits[0].slug == "parallelcardsort" ||
              hits[0].slug == "parallelradixsort")
      << hits[0].slug;
  EXPECT_GT(hits[0].score, hits.back().score);
}

TEST(SearchIndex, RankingIsDeterministic) {
  const auto first = run("message passing network");
  for (int i = 0; i < 3; ++i) {
    const auto again = run("message passing network");
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t h = 0; h < first.size(); ++h) {
      EXPECT_EQ(again[h].slug, first[h].slug);
      EXPECT_EQ(again[h].score, first[h].score);
    }
  }
}

TEST(SearchIndex, StemmedQueryMatchesInflectedText) {
  // "sorted" and "sorting" normalize to the same term.
  const auto sorted = run("sorted");
  const auto sorting = run("sorting");
  ASSERT_FALSE(sorted.empty());
  ASSERT_EQ(sorted.size(), sorting.size());
  EXPECT_EQ(sorted[0].slug, sorting[0].slug);
}

TEST(SearchIndex, TaxonomyFilterRestrictsResults) {
  const auto unfiltered = run("message passing");
  const auto filtered = run("message passing cs2013:PD-Communication");
  ASSERT_FALSE(filtered.empty());
  EXPECT_LT(filtered.size(), unfiltered.size());

  // Every filtered hit must actually carry the term.
  const auto& repo = core::Repository::builtin();
  for (const auto& hit : filtered) {
    const auto* activity = repo.find(hit.slug);
    ASSERT_NE(activity, nullptr);
    bool tagged = false;
    for (const auto& term : activity->cs2013) {
      tagged = tagged || term == "PD_CommunicationCoordination";
    }
    EXPECT_TRUE(tagged) << hit.slug;
  }
}

TEST(SearchIndex, FilterOnlyQueryBrowsesInCurationOrder) {
  const auto hits = run("course:CS2", 100);
  ASSERT_FALSE(hits.empty());
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LT(hits[i - 1].doc, hits[i].doc);  // curation order
  }
  for (const auto& hit : hits) EXPECT_EQ(hit.score, 0.0);
}

TEST(SearchIndex, IntersectingFiltersShrinkTheResult) {
  const auto one = run("sense:touch", 100);
  const auto both = run("sense:touch course:CS2", 100);
  EXPECT_LE(both.size(), one.size());
}

TEST(SearchIndex, UnresolvableFilterMatchesNothing) {
  EXPECT_TRUE(run("sorting cs2013:NoSuchTerm").empty());
  // A filter with a null taxonomy index also matches nothing.
  const auto query = search::parse_query("sorting cs2013:PD-Communication");
  EXPECT_TRUE(index().search(query, nullptr, 10).empty());
}

TEST(SearchIndex, UnknownTermsAndEmptyQueriesAreEmpty) {
  EXPECT_TRUE(run("xyzzyplugh").empty());
  EXPECT_TRUE(run("").empty());
  EXPECT_TRUE(index()
                  .search(search::parse_query("sorting"),
                          &core::Repository::builtin().index(), 0)
                  .empty());
}

TEST(SearchIndex, LimitTruncatesButKeepsTheBestHits) {
  const auto all = run("students cards", 100);
  const auto top3 = run("students cards", 3);
  ASSERT_GE(all.size(), 3u);
  ASSERT_EQ(top3.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3[i].slug, all[i].slug);
  }
}

TEST(SearchIndex, HitsCarrySnippetsWithHighlights) {
  const auto hits = run("message");
  ASSERT_FALSE(hits.empty());
  EXPECT_FALSE(hits[0].snippet.text.empty());
  EXPECT_FALSE(hits[0].snippet.highlights.empty());
}

TEST(SearchIndex, SnippetsEqualThoseOfTheWholeQuery) {
  // A hit's snippet looks only for the query terms its body holds; it must
  // equal the snippet built from every query term.
  const auto& terms = index().terms();
  pdcu::Rng rng(17);
  for (int round = 0; round < 300; ++round) {
    search::Query query;
    const auto count = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < count; ++i) {
      query.terms.emplace_back(terms[rng.below(terms.size())].term);
    }
    for (const auto& hit : index().search(
             query, &core::Repository::builtin().index(), 20)) {
      const auto want =
          search::make_snippet(index().docs()[hit.doc].body, query.terms);
      EXPECT_EQ(hit.snippet.text, want.text) << hit.slug;
      EXPECT_EQ(hit.snippet.highlights, want.highlights) << hit.slug;
      EXPECT_EQ(hit.snippet.clipped_front, want.clipped_front) << hit.slug;
      EXPECT_EQ(hit.snippet.clipped_back, want.clipped_back) << hit.slug;
    }
  }
}

TEST(SearchIndex, TitleOrTagOnlyTermGivesTheHeadOfTheBody) {
  // The first posting of any term whose body count is zero: the term is in
  // that document's title or tags only.
  const auto& terms = index().terms();
  std::size_t checked = 0;
  for (std::size_t t = 0; t < terms.size() && checked < 20; ++t) {
    for (const search::Posting posting : terms[t].postings) {
      if (posting.tf_body != 0) continue;
      search::Query query;
      query.terms = {std::string(terms[t].term)};
      const auto hits =
          index().search(query, &core::Repository::builtin().index(), 100);
      const auto hit = std::find_if(
          hits.begin(), hits.end(),
          [&](const search::Hit& h) { return h.doc == posting.doc; });
      ASSERT_NE(hit, hits.end()) << terms[t].term;
      const auto body = index().docs()[posting.doc].body;
      const auto head = search::make_snippet(body, {});
      EXPECT_EQ(hit->snippet.text, head.text) << terms[t].term;
      EXPECT_TRUE(hit->snippet.highlights.empty()) << terms[t].term;
      EXPECT_FALSE(hit->snippet.clipped_front) << terms[t].term;
      EXPECT_EQ(hit->snippet.clipped_back, head.clipped_back);
      EXPECT_EQ(body.substr(0, head.text.size()), head.text);
      ++checked;
      break;
    }
  }
  EXPECT_EQ(checked, 20u);
}

TEST(SearchIndex, FindTermLooksUpNormalizedTerms) {
  EXPECT_NE(index().find_term("sort"), nullptr);
  EXPECT_EQ(index().find_term("sorting"), nullptr);  // not normalized
  EXPECT_EQ(index().find_term("zzzz"), nullptr);
}
