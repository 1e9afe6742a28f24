// Oracle suite for ranking. A brute-force scorer written here from the
// index's public parts (per document, posting_contribution summed in
// query-term order; sorted by score descending, then document ascending)
// is the reference every execution strategy must reproduce exactly:
// kAuto (term-at-a-time accumulation on dense lists, block-max WAND
// otherwise), kMaxScore, kExhaustive, and pool-sharded runs whose shard
// boundaries split dense lists. posting_contribution computes from the
// postings, while the rankers read the contributions attach() stored, so
// the oracle also checks those. Documents, order and score bits must all
// match.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"

namespace search = pdcu::search;
namespace corpus = pdcu::search::corpus;
namespace core = pdcu::core;
using Algo = search::SearchOptions::Algo;

namespace {

struct Fixture {
  core::Repository repo;
  search::SearchIndex index;
};

const Fixture& fixture(std::size_t docs, std::uint64_t seed) {
  static std::vector<std::pair<std::pair<std::size_t, std::uint64_t>,
                               std::unique_ptr<Fixture>>>
      cache;
  for (const auto& [key, fix] : cache) {
    if (key == std::make_pair(docs, seed)) return *fix;
  }
  auto repo = corpus::synthetic_repository({docs, seed});
  auto index = search::SearchIndex::build(repo);
  cache.emplace_back(std::make_pair(docs, seed),
                     std::make_unique<Fixture>(
                         Fixture{std::move(repo), std::move(index)}));
  return *cache.back().second;
}

struct Ranked {
  std::uint32_t doc = 0;
  double score = 0.0;
};

/// Documents every filter of `query` allows, resolved through the
/// taxonomy index directly.
std::vector<char> allowed_docs(const Fixture& fix, const search::Query& query) {
  const std::size_t n = fix.index.doc_count();
  std::unordered_map<std::string_view, std::uint32_t> by_slug;
  for (std::uint32_t d = 0; d < n; ++d) by_slug[fix.index.docs()[d].slug] = d;
  std::vector<char> allowed(n, 1);
  for (const auto& filter : query.filters) {
    std::vector<char> mask(n, 0);
    const auto term =
        fix.repo.index().resolve_term(filter.taxonomy, filter.value);
    if (term.has_value()) {
      if (const auto* pages = fix.repo.index().find_pages(filter.taxonomy,
                                                          *term)) {
        for (const auto& page : *pages) {
          const auto it = by_slug.find(page.slug);
          if (it != by_slug.end()) mask[it->second] = 1;
        }
      }
    }
    for (std::size_t d = 0; d < n; ++d) allowed[d] = allowed[d] && mask[d];
  }
  return allowed;
}

std::vector<Ranked> brute_force(const Fixture& fix, const search::Query& query,
                                std::size_t limit) {
  const std::size_t n = fix.index.doc_count();
  std::vector<double> score(n, 0.0);
  std::vector<char> matched(n, 0);
  for (const auto& term : query.terms) {
    const search::TermView* entry = fix.index.find_term(term);
    if (entry == nullptr) continue;
    const std::size_t t =
        static_cast<std::size_t>(entry - fix.index.terms().data());
    for (const search::Posting posting : entry->postings) {
      score[posting.doc] += fix.index.posting_contribution(t, posting);
      matched[posting.doc] = 1;
    }
  }
  const std::vector<char> allowed = allowed_docs(fix, query);
  std::vector<Ranked> out;
  for (std::uint32_t d = 0; d < n; ++d) {
    if (matched[d] && allowed[d]) out.push_back({d, score[d]});
  }
  std::sort(out.begin(), out.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

void expect_matches(const std::vector<Ranked>& want,
                    const std::vector<search::Hit>& got,
                    const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << label << " hit " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i].score),
              std::bit_cast<std::uint64_t>(got[i].score))
        << label << " hit " << i;
  }
}

/// Lists of `query` holding at least one posting, and whether each holds
/// at least 1/kDenseDivisor of the corpus (kAuto's density rule over the
/// full range).
struct Shape {
  std::size_t lists = 0;
  bool all_dense = true;
};

Shape shape(const Fixture& fix, const search::Query& query) {
  Shape out;
  for (const auto& term : query.terms) {
    const search::TermView* entry = fix.index.find_term(term);
    if (entry == nullptr) continue;
    ++out.lists;
    out.all_dense =
        out.all_dense && entry->postings.size() >=
                             fix.index.doc_count() / search::kDenseDivisor;
  }
  return out;
}

std::string word(std::size_t rank) { return corpus::term_at_rank(rank); }

/// Dense pairs and triples of head ranks, head plus rare, head pairs plus a
/// rare term (where WAND's lazy probes skip most candidates), sparse
/// pairs, single terms, one and two filters, and pairs of the head term
/// with the indexed terms whose lists sit closest to 1/8 and to
/// 1/kDenseDivisor of the corpus on either side, each also filtered.
std::vector<search::Query> queries(const Fixture& fix) {
  std::vector<std::string> texts = {
      word(0) + " " + word(1),
      word(2) + " " + word(5),
      word(0) + " " + word(1) + " " + word(2),
      word(1) + " " + word(3) + " " + word(4),
      word(0) + " " + word(150),
      word(1) + " " + word(400),
      word(0) + " " + word(1) + " " + word(300),
      word(1) + " " + word(2) + " " + word(500),
      word(0) + " " + word(2) + " " + word(150) + " course:CS1",
      word(0) + " " + word(1) + " " + word(400) + " sense:touch",
      word(120) + " " + word(200),
      word(300) + " " + word(500),
      word(0),
      word(200),
      word(0) + " " + word(1) + " course:CS1",
      word(0) + " " + word(2) + " " + word(3) + " course:CS1",
      word(0) + " " + word(1) + " sense:touch course:CS1",
      word(150) + " " + word(1) + " sense:touch",
      "xyzzyplugh " + word(0),
  };
  std::vector<search::Query> out;
  for (const auto& text : texts) out.push_back(search::parse_query(text));

  const std::string head = out.front().terms.front();
  const search::Query filter = search::parse_query("course:CS1");
  for (const std::size_t divisor : {std::size_t{8}, search::kDenseDivisor}) {
    const std::size_t edge = fix.index.doc_count() / divisor;
    std::vector<std::pair<std::size_t, std::string_view>> by_gap;
    for (const auto& term : fix.index.terms()) {
      const std::size_t df = term.postings.size();
      by_gap.emplace_back(df > edge ? df - edge : edge - df, term.term);
    }
    std::sort(by_gap.begin(), by_gap.end());
    for (std::size_t i = 0; i < std::min<std::size_t>(6, by_gap.size());
         ++i) {
      if (by_gap[i].second == head) continue;
      search::Query query;
      query.terms = {head, std::string(by_gap[i].second)};
      out.push_back(query);
      query.filters = filter.filters;
      out.push_back(query);
    }
  }
  return out;
}

std::string describe(const search::Query& query) {
  std::string text;
  for (const auto& term : query.terms) text += term + " ";
  for (const auto& filter : query.filters) {
    text += filter.taxonomy + ":" + filter.value + " ";
  }
  return text;
}

}  // namespace

class RankingOracle
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint64_t>> {
};

TEST_P(RankingOracle, EveryStrategyMatchesBruteForce) {
  const auto [docs, seed] = GetParam();
  const Fixture& fix = fixture(docs, seed);
  pdcu::rt::ThreadPool pool2(2);
  pdcu::rt::ThreadPool pool3(3);
  pdcu::rt::ThreadPool pool4(4);
  bool saw_dense = false;
  bool saw_sparse = false;
  for (const auto& query : queries(fix)) {
    const Shape s = shape(fix, query);
    saw_dense = saw_dense || (s.lists >= 2 && s.all_dense);
    saw_sparse = saw_sparse || (s.lists >= 2 && !s.all_dense);
    for (const std::size_t limit : {1u, 10u, 50u}) {
      const auto want = brute_force(fix, query, limit);
      const auto label = describe(query) + "limit=" + std::to_string(limit);
      for (const Algo algo : {Algo::kAuto, Algo::kMaxScore,
                              Algo::kExhaustive}) {
        search::SearchOptions options{.limit = limit};
        options.algo = algo;
        options.snippets = false;
        expect_matches(want,
                       fix.index.search(query, &fix.repo.index(), options),
                       label + " algo=" + std::to_string(int(algo)));
        // Shards of 1/2, 1/3 and 1/4 of the corpus cut through every
        // dense list, and each shard applies the density rule alone.
        for (pdcu::rt::ThreadPool* pool : {&pool2, &pool3, &pool4}) {
          options.pool = pool;
          options.min_shard_docs = 64;
          expect_matches(
              want, fix.index.search(query, &fix.repo.index(), options),
              label + " algo=" + std::to_string(int(algo)) +
                  " shards=" + std::to_string(pool->size()));
        }
      }
    }
  }
  EXPECT_TRUE(saw_dense) << "no query took the accumulation path";
  EXPECT_TRUE(saw_sparse) << "no multi-list query took block-max";
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, RankingOracle,
    ::testing::Values(std::make_pair(std::size_t{700}, std::uint64_t{5}),
                      std::make_pair(std::size_t{2500}, std::uint64_t{13})));
