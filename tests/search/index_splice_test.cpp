// Oracle suite for the spliced build. A SearchIndex::build through an
// IndexCache tokenizes only the documents the previous build did not hold
// and splices the rest out of the previous payload; a cold build of the
// same repository is the oracle. Seeded edit sequences over a synthetic
// corpus (body edits, tag toggles, adds, deletes, slug renames that move a
// document, several changes in one build) run with and without a pool,
// and after every step the payload must equal the cold build's byte for
// byte. Targeted cases cover a term losing its last posting, new terms
// sorting before and after every other term, documents with identical
// fingerprints, and an edit followed by its revert.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/support/rng.hpp"

namespace search = pdcu::search;
namespace corpus = pdcu::search::corpus;
namespace core = pdcu::core;
namespace rt = pdcu::rt;
using Algo = search::SearchOptions::Algo;

namespace {

constexpr std::size_t kDocs = 240;

/// Builds each step through one IndexCache and checks it against a cold
/// build of the same activities.
class Spliced {
 public:
  explicit Spliced(rt::ThreadPool* pool) : pool_(pool) {}

  /// Builds `activities` through the cache; returns the spliced index.
  search::SearchIndex step(const std::vector<core::Activity>& activities,
                           const std::string& what) {
    SCOPED_TRACE(what);
    const core::Repository repo(activities);
    const search::SearchIndex spliced =
        *search::SearchIndex::build(repo, cache_, pool_);
    const search::SearchIndex cold = search::SearchIndex::build(repo);
    EXPECT_TRUE(spliced.payload() == cold.payload())
        << "payload differs from a cold build";
    EXPECT_EQ(cache_.size(), activities.size());
    EXPECT_EQ(cache_.tokenized() + cache_.reused(), activities.size());
    return spliced;
  }

  const search::IndexCache& cache() const { return cache_; }

 private:
  rt::ThreadPool* pool_;
  search::IndexCache cache_;
};

std::vector<core::Activity> corpus_of(std::size_t docs, std::uint64_t seed) {
  return corpus::synthetic_activities({docs, seed});
}

/// A document no other one shares a slug with.
core::Activity new_activity(std::uint64_t seed, std::size_t n) {
  core::Activity activity = corpus::synthetic_activity(seed ^ 0xadd, n);
  activity.slug = "added-" + std::to_string(n);
  return activity;
}

void toggle(std::vector<std::string>& tags, const std::string& tag) {
  const auto at = std::find(tags.begin(), tags.end(), tag);
  if (at == tags.end()) {
    tags.push_back(tag);
  } else {
    tags.erase(at);
  }
}

enum class Edit { kBody, kTag, kAdd, kDelete, kRename, kSeveral };

/// One seeded edit sequence; every step is checked against a cold build.
void run_sequence(std::uint64_t seed, rt::ThreadPool* pool) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  auto activities = corpus_of(kDocs, seed);
  Spliced spliced(pool);
  spliced.step(activities, "first build");
  EXPECT_EQ(spliced.cache().tokenized(), activities.size());
  EXPECT_EQ(spliced.cache().reused(), 0u);

  const std::vector<std::string> courses = {"CS0", "CS1", "CS2", "DSA",
                                            "Systems"};
  pdcu::Rng rng(seed * 7919 + 1);
  for (int n = 0; n < 24; ++n) {
    const auto edit = static_cast<Edit>(rng.below(6));
    const std::size_t at = rng.below(activities.size());
    const std::string what = "step " + std::to_string(n);
    std::size_t tokenized = 1;
    switch (edit) {
      case Edit::kBody:
        activities[at].details += " Revision " + std::to_string(n) + ".";
        break;
      case Edit::kTag:
        toggle(activities[at].courses, courses[rng.below(courses.size())]);
        break;
      case Edit::kAdd:
        activities.insert(activities.begin() + at, new_activity(seed, n));
        break;
      case Edit::kDelete:
        activities.erase(activities.begin() + at);
        tokenized = 0;
        break;
      case Edit::kRename: {
        // A new slug moves the file, and so the document, in curation order.
        core::Activity moved = activities[at];
        moved.slug += "-renamed-" + std::to_string(n);
        activities.erase(activities.begin() + at);
        const std::size_t to = rng.below(activities.size() + 1);
        activities.insert(activities.begin() + to, std::move(moved));
        break;
      }
      case Edit::kSeveral: {
        // Three body edits and a delete in one build.
        std::vector<std::size_t> picked;
        while (picked.size() < 3) {
          const std::size_t d = rng.below(activities.size());
          if (std::find(picked.begin(), picked.end(), d) == picked.end()) {
            picked.push_back(d);
          }
        }
        for (const std::size_t d : picked) {
          activities[d].details += " Batch " + std::to_string(n) + ".";
        }
        std::sort(picked.begin(), picked.end());
        std::size_t drop = rng.below(activities.size());
        while (std::binary_search(picked.begin(), picked.end(), drop)) {
          drop = rng.below(activities.size());
        }
        activities.erase(activities.begin() + drop);
        tokenized = 3;
        break;
      }
    }
    spliced.step(activities, what);
    EXPECT_EQ(spliced.cache().tokenized(), tokenized) << what;
    EXPECT_EQ(spliced.cache().reused(), activities.size() - tokenized)
        << what;
    if (::testing::Test::HasFailure()) return;
  }
}

struct Hits {
  std::vector<std::uint32_t> docs;
  std::vector<std::uint64_t> score_bits;
  bool operator==(const Hits&) const = default;
};

Hits ranked(const search::SearchIndex& index, const core::Repository& repo,
            const std::string& text, Algo algo) {
  search::SearchOptions options;
  options.algo = algo;
  options.limit = 15;
  options.snippets = false;
  Hits hits;
  for (const auto& hit :
       index.search(search::parse_query(text), &repo.index(), options)) {
    hits.docs.push_back(hit.doc);
    hits.score_bits.push_back(std::bit_cast<std::uint64_t>(hit.score));
  }
  return hits;
}

}  // namespace

TEST(IndexSplice, SeededEditsMatchAColdBuildSerially) {
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    run_sequence(seed, nullptr);
  }
}

TEST(IndexSplice, SeededEditsMatchAColdBuildOnAPool) {
  rt::ThreadPool pool(3);
  for (const std::uint64_t seed : {5u, 99u}) {
    run_sequence(seed, &pool);
  }
}

TEST(IndexSplice, TermsComeAndGoAtEitherEndOfTheDictionary) {
  auto activities = corpus_of(kDocs, 11);
  Spliced spliced(nullptr);
  spliced.step(activities, "first build");

  const std::string original = activities[40].details;
  activities[40].details += " 000first zzzzlast";
  const auto grown = spliced.step(activities, "terms added at both ends");
  ASSERT_GE(grown.term_count(), 2u);
  EXPECT_EQ(grown.terms().front().term, "000first");
  EXPECT_EQ(grown.terms().back().term, "zzzzlast");
  ASSERT_NE(grown.find_term("zzzzlast"), nullptr);
  EXPECT_EQ(grown.find_term("zzzzlast")->postings.size(), 1u);
  EXPECT_EQ(spliced.cache().tokenized(), 1u);

  // The only document holding them drops them again: both terms lose
  // their last posting and leave the dictionary.
  activities[40].details = original;
  const auto shrunk = spliced.step(activities, "terms removed at both ends");
  EXPECT_EQ(shrunk.find_term("000first"), nullptr);
  EXPECT_EQ(shrunk.find_term("zzzzlast"), nullptr);
  EXPECT_EQ(shrunk.term_count(), grown.term_count() - 2);

  // A term whose only document is deleted goes the same way.
  activities[7].details += " soleholderword";
  spliced.step(activities, "a term only one document holds");
  activities.erase(activities.begin() + 7);
  const auto deleted = spliced.step(activities, "its document deleted");
  EXPECT_EQ(deleted.find_term("soleholderword"), nullptr);
  EXPECT_EQ(spliced.cache().tokenized(), 0u);
}

TEST(IndexSplice, DocumentsWithIdenticalFingerprintsEachKeepTheirPlace) {
  auto activities = corpus_of(kDocs, 23);
  // Three copies of one document: same slug, same content, same
  // fingerprint.
  activities.insert(activities.begin() + 100, activities[10]);
  activities.insert(activities.begin() + 200, activities[10]);
  Spliced spliced(nullptr);
  spliced.step(activities, "first build");

  activities[5].details += " Unrelated edit.";
  spliced.step(activities, "an edit elsewhere");
  EXPECT_EQ(spliced.cache().tokenized(), 1u);

  // Editing the middle copy re-tokenizes it alone; the outer copies match
  // the previous copies in order.
  activities[100].details += " Only the middle copy.";
  spliced.step(activities, "the middle copy edited");
  EXPECT_EQ(spliced.cache().tokenized(), 1u);

  activities.erase(activities.begin() + 10);
  spliced.step(activities, "the first copy deleted");
  EXPECT_EQ(spliced.cache().tokenized(), 0u);
}

TEST(IndexSplice, AnEditAndItsRevertRestoreTheBytes) {
  const auto original = corpus_of(kDocs, 31);
  auto activities = original;
  Spliced spliced(nullptr);
  const auto before = spliced.step(activities, "first build");

  activities[120].details += " A passing thought about barriers.";
  toggle(activities[120].courses, "CS2");
  const auto edited = spliced.step(activities, "edited");
  EXPECT_FALSE(edited.payload() == before.payload());
  EXPECT_EQ(spliced.cache().tokenized(), 1u);

  const auto reverted = spliced.step(original, "reverted");
  EXPECT_TRUE(reverted.payload() == before.payload());
  EXPECT_EQ(spliced.cache().tokenized(), 1u);
}

TEST(IndexSplice, ADocumentMovedBackIsRetokenizedAndStillExact) {
  auto activities = corpus_of(kDocs, 37);
  Spliced spliced(nullptr);
  spliced.step(activities, "first build");

  // Same fingerprint, new place: matching stays monotone, so the moved
  // document (or those it jumped over) is tokenized again.
  std::rotate(activities.begin() + 30, activities.begin() + 31,
              activities.begin() + 90);
  spliced.step(activities, "moved forward");
  EXPECT_EQ(spliced.cache().tokenized(), 1u);
  std::rotate(activities.begin() + 30, activities.begin() + 89,
              activities.begin() + 90);
  spliced.step(activities, "moved back");
  EXPECT_GE(spliced.cache().tokenized(), 1u);
}

TEST(IndexSplice, SplicedIndexRanksLikeTheExhaustiveScorer) {
  auto activities = corpus_of(kDocs, 41);
  Spliced spliced(nullptr);
  spliced.step(activities, "first build");
  pdcu::Rng rng(41);
  for (int n = 0; n < 6; ++n) {
    activities[rng.below(activities.size())].details +=
        " parallel sorting revision " + std::to_string(n);
    activities.erase(activities.begin() + rng.below(activities.size()));
    activities.insert(activities.begin() + rng.below(activities.size()),
                      new_activity(41, n));
  }
  const core::Repository repo(activities);
  const auto index = spliced.step(activities, "after edits");

  std::vector<std::string> queries = {"parallel sorting", "revision",
                                      "message passing network",
                                      "parallel cs2013:PD_1"};
  for (const auto& term : corpus::sample_query_terms(41, 12)) {
    queries.push_back(term);
  }
  for (const auto& query : queries) {
    const Hits want = ranked(index, repo, query, Algo::kExhaustive);
    EXPECT_EQ(ranked(index, repo, query, Algo::kAuto), want) << query;
    EXPECT_EQ(ranked(index, repo, query, Algo::kMaxScore), want) << query;
  }
}
