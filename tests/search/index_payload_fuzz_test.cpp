// Robustness sweep for index loading: thousands of seeded mutations of
// valid serialized indexes (byte flips, overwritten length and count
// fields, overwritten term frequencies, insertions, deletions,
// truncations) must never crash or read past the buffer. Most mutants get
// a recomputed checksum so they reach SearchIndex::attach() rather than
// stopping at the header check. Whatever loads must be internally
// consistent: kAuto, kMaxScore, kExhaustive and sharded runs return the
// same documents with the same score bits. Run under ASan and UBSan in CI,
// where an over-read or a bad shift fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/search/serialize.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/rng.hpp"

namespace search = pdcu::search;
namespace core = pdcu::core;
using Algo = search::SearchOptions::Algo;

namespace {

constexpr std::size_t kHeaderBytes = 20;  // magic, version, checksum
constexpr std::size_t kChecksumAt = 12;

struct Seed {
  core::Repository repo;
  std::string file;        ///< serialized index
  std::size_t terms_at;    ///< payload offset of the term section
};

Seed make_seed(core::Repository repo) {
  const auto index = search::SearchIndex::build(repo);
  const std::string_view payload = index.payload();
  const auto& last = index.docs().back();
  const std::size_t terms_at =
      static_cast<std::size_t>(last.body.data() + last.body.size() -
                               payload.data()) +
      12;  // the document's three u32 field lengths
  return {std::move(repo), search::serialize_index(index), terms_at};
}

/// The curated corpus (real prose, sparse lists) and a small synthetic one
/// (dense head-term lists, so kAuto takes the accumulation path).
const std::vector<Seed>& seeds() {
  static const std::vector<Seed> kSeeds = [] {
    std::vector<Seed> out;
    out.push_back(make_seed(core::Repository::builtin()));
    out.push_back(make_seed(
        search::corpus::synthetic_repository({120, 3})));
    return out;
  }();
  return kSeeds;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t value) {
  for (std::size_t i = 0; i < 4 && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

/// A payload offset: half the time inside the document table, half the
/// time inside the term section, where counts and frequencies live.
std::size_t pick(pdcu::Rng& rng, const Seed& seed, std::size_t size) {
  const std::size_t lo = kHeaderBytes;
  const std::size_t mid = std::min(size, kHeaderBytes + seed.terms_at);
  if (size <= lo) return size;
  if (rng.chance(0.5) && mid > lo) return lo + rng.below(mid - lo);
  return size > mid ? mid + rng.below(size - mid) : lo + rng.below(size - lo);
}

std::string mutate(pdcu::Rng& rng, const Seed& seed) {
  std::string bytes = seed.file;
  static const std::uint32_t kInteresting[] = {
      0, 1, 2, 0xff, 0xffff, 0x10000, 0x7fffffff, 0xffffffff, 120, 38};
  const auto edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = pick(rng, seed, bytes.size());
    switch (rng.below(6)) {
      case 0:  // flip a byte
        if (at < bytes.size()) bytes[at] = static_cast<char>(rng.below(256));
        break;
      case 1:  // overwrite a u32 (a count, length or document id)
        put_u32(bytes, at,
                kInteresting[rng.below(std::size(kInteresting))]);
        break;
      case 2:  // overwrite a u16 (a term frequency)
        if (at + 1 < bytes.size()) {
          bytes[at] = static_cast<char>(rng.below(3));
          bytes[at + 1] = static_cast<char>(rng.chance(0.8) ? 0 : 0xff);
        }
        break;
      case 3:  // delete a run
        if (at < bytes.size()) bytes.erase(at, 1 + rng.below(12));
        break;
      case 4:  // duplicate a run in place
        if (at < bytes.size()) {
          bytes.insert(at, bytes.substr(at, 1 + rng.below(24)));
        }
        break;
      default:  // truncate
        bytes.resize(at);
        break;
    }
  }
  // Most mutants get a valid checksum so they reach attach(); the rest
  // test the header check on a stale one.
  if (bytes.size() >= kHeaderBytes && rng.chance(0.9)) {
    const std::uint64_t sum = pdcu::hash::fnv1a_64(
        std::string_view(bytes).substr(kHeaderBytes));
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[kChecksumAt + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
    }
  }
  return bytes;
}

void expect_same(const std::vector<search::Hit>& want,
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

/// Queries drawn from the loaded index's own terms (so they hit whatever
/// postings survived the mutation), half of them from its longest lists,
/// some with a taxonomy filter.
void expect_consistent(pdcu::Rng& rng, const search::SearchIndex& index,
                       const core::Repository& repo,
                       pdcu::rt::ThreadPool& pool) {
  if (index.term_count() == 0) return;
  // The longest lists, so queries often pass kAuto's density rule.
  std::vector<std::size_t> longest(index.term_count());
  for (std::size_t t = 0; t < longest.size(); ++t) longest[t] = t;
  std::sort(longest.begin(), longest.end(), [&](std::size_t a, std::size_t b) {
    return index.terms()[a].postings.size() > index.terms()[b].postings.size();
  });
  longest.resize(std::min<std::size_t>(longest.size(), 6));
  for (int q = 0; q < 4; ++q) {
    search::Query query;
    const auto count = 1 + rng.below(3);
    for (std::uint64_t t = 0; t < count; ++t) {
      const std::size_t pick = rng.chance(0.5)
                                   ? longest[rng.below(longest.size())]
                                   : rng.below(index.term_count());
      std::string term(index.terms()[pick].term);
      if (std::find(query.terms.begin(), query.terms.end(), term) ==
          query.terms.end()) {
        query.terms.push_back(std::move(term));
      }
    }
    if (rng.chance(0.25)) {
      query.filters = search::parse_query("course:CS1").filters;
    }
    // At the largest limit every matched document is compared, so a
    // document the strategies disagree about cannot hide below the top 10.
    const std::size_t limits[] = {1, 10, index.doc_count()};
    const std::size_t limit = limits[rng.below(3)];

    search::SearchOptions exhaustive{.limit = limit};
    exhaustive.algo = Algo::kExhaustive;
    const auto want = index.search(query, &repo.index(), exhaustive);
    for (const Algo algo : {Algo::kAuto, Algo::kMaxScore}) {
      search::SearchOptions options{.limit = limit};
      options.algo = algo;
      expect_same(want, index.search(query, &repo.index(), options),
                  "algo " + std::to_string(int(algo)));
      options.pool = &pool;
      options.min_shard_docs = 8;
      expect_same(want, index.search(query, &repo.index(), options),
                  "sharded algo " + std::to_string(int(algo)));
    }
  }
}

}  // namespace

class IndexPayloadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexPayloadFuzz, MutatedIndexesLoadConsistentlyOrFail) {
  pdcu::Rng rng(GetParam());
  pdcu::rt::ThreadPool pool(3);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 300; ++round) {
    const Seed& seed = seeds()[rng.below(seeds().size())];
    // An exact-size heap copy, so a read one byte past the end is an ASan
    // heap-buffer-overflow rather than a silent read of spare capacity.
    const std::string mutant = mutate(rng, seed);
    const std::vector<char> exact(mutant.begin(), mutant.end());
    auto index = search::deserialize_index(
        std::string_view(exact.data(), exact.size()));
    if (!index.has_value()) {
      EXPECT_FALSE(index.error().code.empty());
      ++rejected;
      continue;
    }
    ++loaded;
    expect_consistent(rng, index.value(), seed.repo, pool);
  }
  // The sweep exercised both verdicts, not just one.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPayloadFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IndexPayloadFuzz, AttachRejectsImpossibleTermFrequencies) {
  // A posting that counts no occurrence, or more occurrences in a field
  // than the field has tokens, would give a zero or non-finite score.
  for (const search::Posting bad :
       {search::Posting{0, 0, 0, 0}, search::Posting{0, 2, 0, 0},
        search::Posting{0, 0, 1, 0}, search::Posting{0, 0, 0, 9}}) {
    search::DocEntry doc;
    doc.slug = "only";
    doc.title = "pivot";
    doc.body = "pivot text";
    doc.len_title = 1;
    doc.len_body = 2;
    search::TermPostings pivot;
    pivot.term = "pivot";
    pivot.postings = {bad};
    const auto index = search::SearchIndex::from_parts({doc}, {pivot});
    ASSERT_FALSE(index.has_value());
    EXPECT_EQ(index.error().code, "search.index.postings");
  }
}
