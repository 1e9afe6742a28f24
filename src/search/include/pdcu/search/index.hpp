// The search index: a field-weighted inverted index over the curated
// activities with BM25 ranking. Three fields per document — title, taxonomy
// tags, and body (details, accessibility, assessment, variations,
// citations) — each with its own boost, folded BM25F-style into one weighted
// term frequency per posting.
//
// Storage model: the index always serves from its *serialized payload* —
// one contiguous heap-owned byte buffer holding the document table and the
// packed posting lists — with small directory vectors of views pointing
// into it. The buffer is written by a build or adopted from a loaded file,
// and copies of an index share it. Document ids and term frequencies
// decode on the fly from the packed little-endian records (one word load
// per field). What attach derives lives beside it: per-document norms,
// per-term idf and maxima, per-block maxima, and one double per posting,
// its BM25F contribution, which the rankers read instead of recomputing
// it. That double is never serialized, so the payload format does not
// depend on it.
//
// Construction can run in parallel on the existing rt::ThreadPool: each
// block of documents tokenizes and numbers its own terms, and one pass in
// document order places every posting, so the result is bit-identical to a
// serial build. A build through an IndexCache tokenizes only the documents
// the previous build did not hold and splices the rest out of the previous
// payload, in time proportional to the edit plus one pass over the bytes;
// the payload is still the one a cold build writes. Queries are
// const and lock-free on the index itself (an optional FilterCache takes a
// shared lock), so any number of server threads can search one index
// concurrently; with a pool in SearchOptions, one query additionally
// shards across workers (per-shard top-k, deterministic merge).
//
// Ranked retrieval picks a strategy per shard, and every strategy returns
// the same top-k. Per term the index keeps the maximum BM25F contribution
// of any posting and of every kBlockPostings-posting block. By default
// (SearchOptions::Algo::kAuto) a query whose every list is dense — two or
// more lists, each holding at least 1/kDenseDivisor of the shard's
// documents — is scored term-at-a-time into one reused score array,
// because pruning skips little on such lists. Any other query runs
// document-at-a-time block-max WAND: documents whose bounds cannot reach
// the current top-k threshold are skipped without scoring, often a whole
// block at a time. Before WAND seeks the lists that lag behind a pivot
// document, it probes it: the exact contributions of the lists already on
// it plus the lagging lists' block maxima there bound its score, and a
// pivot under the threshold is stepped over without seeking anything.
// Every strategy is rank-safe: candidate documents are always scored with
// the exact BM25F sum in query-term order, so the returned top-k
// (documents, scores, and order) is bit-identical to exhaustive scoring;
// the property suites in tests/search/scale_test.cpp and
// ranking_oracle_test.cpp lock this in across synthetic corpora.
//
// A hit's snippet looks only for the query terms its body holds (a
// posting with a body count), since no other term can match there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/search/snippet.hpp"
#include "pdcu/support/expected.hpp"
#include "pdcu/taxonomy/term_index.hpp"

namespace pdcu::obs {
class SpanRegistry;
}  // namespace pdcu::obs

namespace pdcu::search {

/// Per-field term frequencies of one term in one document.
struct Posting {
  std::uint32_t doc = 0;
  std::uint16_t tf_title = 0;
  std::uint16_t tf_tags = 0;
  std::uint16_t tf_body = 0;

  bool operator==(const Posting&) const = default;
};

/// One posting's packed on-disk footprint: doc u32 + three tf u16, all
/// little-endian, no padding.
inline constexpr std::size_t kPostingBytes = 10;

/// Postings per block-max block: each block of this many postings carries
/// the maximum BM25F contribution any of its documents can score, which is
/// what lets the pruned scorer skip whole blocks without decoding them.
/// Small blocks make the bounds sharp: with field boosts, one title hit is
/// enough to pin a whole block's bound at the title level, so coarse
/// blocks rarely skip. 16 postings costs 16 metadata bytes per 160 payload
/// bytes (derived at attach, never serialized) and skips 3-10x more
/// postings than 128 did on the synthetic corpus.
inline constexpr std::size_t kBlockPostings = 16;

/// kAuto ranks a shard term-at-a-time when the query has at least two
/// lists and each holds at least 1/kDenseDivisor of the shard's documents.
/// With stored contributions a term-at-a-time posting costs one load and
/// one add, plus one pass over the shard's score slots, while block-max
/// WAND still takes a pivot round per few documents on such lists. 32 was
/// the fastest of 8/16/32/64 end to end on perfbench's search_corpus mix
/// (EXPERIMENTS.md, "Stored contributions").
inline constexpr std::size_t kDenseDivisor = 32;

/// All postings of one term, ascending by document id (builder/loader
/// exchange format; the index itself serves packed views).
struct TermPostings {
  std::string term;
  std::vector<Posting> postings;

  bool operator==(const TermPostings&) const = default;
};

/// One indexed document in builder/loader exchange form.
struct DocEntry {
  std::string slug;
  std::string title;
  std::string body;  ///< plain text snippet source
  std::uint32_t len_title = 0;
  std::uint32_t len_tags = 0;
  std::uint32_t len_body = 0;

  bool operator==(const DocEntry&) const = default;
};

/// A term's postings as a view over the packed payload records; decodes
/// each posting lazily, on access.
class PostingsView {
 public:
  PostingsView() = default;
  PostingsView(const char* data, std::uint32_t count)
      : data_(data), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  Posting operator[](std::size_t i) const;
  /// Just the document id of posting `i` (the hot field during seeks).
  std::uint32_t doc_at(std::size_t i) const;

  /// Forward iterator yielding decoded postings by value.
  class iterator {
   public:
    using value_type = Posting;
    using difference_type = std::ptrdiff_t;

    iterator(const PostingsView* view, std::size_t pos)
        : view_(view), pos_(pos) {}
    Posting operator*() const { return (*view_)[pos_]; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const iterator& other) const = default;

   private:
    const PostingsView* view_;
    std::size_t pos_ = 0;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, count_}; }

 private:
  const char* data_ = nullptr;
  std::uint32_t count_ = 0;
};

/// Directory row for one term: the term text and its packed postings, both
/// views into the index's payload storage.
struct TermView {
  std::string_view term;
  PostingsView postings;
};

/// Directory row for one document: identity plus the plain text used for
/// snippets and the per-field token counts BM25 needs for normalization.
struct DocView {
  std::string_view slug;
  std::string_view title;
  std::string_view body;
  std::uint32_t len_title = 0;
  std::uint32_t len_tags = 0;
  std::uint32_t len_body = 0;
};

/// One ranked result.
struct Hit {
  std::uint32_t doc = 0;
  std::string slug;
  std::string title;
  double score = 0.0;
  Snippet snippet;
};

/// BM25F field boosts; title matches dominate, tags beat body prose.
struct FieldBoosts {
  double title = 4.0;
  double tags = 2.5;
  double body = 1.0;
};

/// Memoizes resolved taxonomy-filter document sets for one immutable
/// (index, taxonomy) snapshot. Resolving a filter like `cs2013:PD_1` walks
/// every tagged page and hashes its slug — tens of thousands of lookups on
/// a large corpus — so the server caches the resulting doc set per
/// (taxonomy, term) pair. Thread-safe; entries are immutable once built.
///
/// Invalidation is by ownership, not by eviction: the cache describes one
/// index snapshot, so the server keeps it next to the index in the same
/// RCU snapshot and a reload swaps in a fresh empty cache with the fresh
/// index. Never share one FilterCache across different indexes.
class FilterCache {
 public:
  /// One resolved filter: the matching documents both ways around —
  /// ascending ids for intersection, a doc_count-size byte mask for O(1)
  /// membership during ranking.
  struct Entry {
    std::vector<std::uint32_t> docs;
    std::vector<char> mask;
  };

  FilterCache() = default;
  // Movable so owners (Router) stay movable. Moving while other threads
  // still query the source is a caller bug, same contract as QueryCache.
  FilterCache(FilterCache&& other) noexcept
      : entries_(std::move(other.entries_)) {}
  FilterCache& operator=(FilterCache&& other) noexcept {
    if (this != &other) entries_ = std::move(other.entries_);
    return *this;
  }
  FilterCache(const FilterCache&) = delete;
  FilterCache& operator=(const FilterCache&) = delete;

  /// The entry for a resolved (taxonomy, term) filter, computing and
  /// inserting it on first use. `compute` must be pure: the same key must
  /// map to the same entry for the cache's whole lifetime.
  template <typename Compute>
  std::shared_ptr<const Entry> get(std::string_view taxonomy,
                                   std::string_view term, Compute&& compute) {
    std::string key;
    key.reserve(taxonomy.size() + 1 + term.size());
    key.append(taxonomy);
    key.push_back('\0');  // unambiguous separator: tags never contain NUL
    key.append(term);
    {
      std::shared_lock lock(mutex_);
      const auto it = entries_.find(key);
      if (it != entries_.end()) return it->second;
    }
    auto entry = std::make_shared<const Entry>(compute());
    std::unique_lock lock(mutex_);
    // Losing a race just means both sides computed the same entry; keep
    // the first so every caller sees one pointer value per key.
    return entries_.try_emplace(std::move(key), std::move(entry))
        .first->second;
  }

  std::size_t size() const {
    std::shared_lock lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<const Entry>, std::less<>> entries_;
};

class IndexCache;

/// How one query executes. The default — kAuto, serial — is correct at
/// every corpus size; a pool adds per-shard top-k fan-out for large
/// corpora, kMaxScore forces block-max pruning, and kExhaustive forces the
/// reference scan-everything scorer (benchmarks, parity tests).
struct SearchOptions {
  std::size_t limit = 10;

  /// Shard query execution across this pool's workers when the corpus is
  /// large enough (>= 2 * min_shard_docs). Results are bit-identical to a
  /// serial query. It may be the pool the caller is running on: the
  /// caller runs every shard no free worker has claimed.
  rt::ThreadPool* pool = nullptr;

  enum class Algo {
    /// Per shard: term-at-a-time accumulation when every one of two or
    /// more query lists holds at least 1/kDenseDivisor of the shard's
    /// documents, else kMaxScore.
    kAuto,
    kExhaustive,  ///< score every posting of every query term
    kMaxScore,    ///< block-max early termination (rank-safe)
  };
  Algo algo = Algo::kAuto;

  /// Smallest per-shard document range worth a task dispatch.
  std::size_t min_shard_docs = 8192;

  /// Memoizes taxonomy-filter resolution across queries. Must describe
  /// this index + taxonomy snapshot (see FilterCache). Null recomputes the
  /// filter per query.
  FilterCache* filter_cache = nullptr;

  /// Generate a highlighted snippet per hit. The snippet walks the whole
  /// document body, a per-hit cost independent of corpus size — benchmarks
  /// isolating ranking turn it off; Hit::snippet comes back empty.
  bool snippets = true;
};

class SearchIndex {
 public:
  /// An empty index (canonical empty payload).
  SearchIndex();

  /// Indexes every activity of `repo` in curation order. With a pool the
  /// build shards across its workers; the result is identical either way.
  /// With `spans`, the wall time lands there as a "search.build" span (and
  /// "search.merge" for the merge-and-encode tail), so repeated builds —
  /// watch mode reloads, benchmarks — accumulate a latency histogram.
  static SearchIndex build(const core::Repository& repo,
                           rt::ThreadPool* pool = nullptr,
                           obs::SpanRegistry* spans = nullptr);

  /// The same build through `cache`: documents the previous build held
  /// are spliced from its payload instead of tokenized (see IndexCache).
  /// The index comes back shared with the cache, which keeps it, uncopied,
  /// as the previous build of the next one.
  static std::shared_ptr<const SearchIndex> build(
      const core::Repository& repo, IndexCache& cache,
      rt::ThreadPool* pool = nullptr, obs::SpanRegistry* spans = nullptr);

  /// Reassembles an index from builder parts, validating invariants
  /// (terms sorted and unique, postings sorted, doc ids in range, each
  /// posting counting at least one and at most its fields' tokens).
  static Expected<SearchIndex> from_parts(std::vector<DocEntry> docs,
                                          std::vector<TermPostings> terms);

  /// Adopts serialized payload bytes (the post-header section of the
  /// on-disk format), validating the same invariants as from_parts.
  static Expected<SearchIndex> from_payload(std::string payload);

  /// Ranked search. Filters resolve against `taxonomy` (pass
  /// repo.index()); a query with filters but a null taxonomy, or with a
  /// filter that resolves to no term, matches nothing. A filter-only query
  /// returns the filtered documents in curation order with score 0.
  std::vector<Hit> search(const Query& query, const tax::TermIndex* taxonomy,
                          std::size_t limit = 10) const;

  /// Ranked search with explicit execution options (algorithm choice and
  /// optional query-time sharding). Every option combination returns the
  /// same hits in the same order with the same scores.
  std::vector<Hit> search(const Query& query, const tax::TermIndex* taxonomy,
                          const SearchOptions& options) const;

  std::size_t doc_count() const { return docs_.size(); }
  std::size_t term_count() const { return terms_.size(); }
  const std::vector<DocView>& docs() const { return docs_; }
  const std::vector<TermView>& terms() const { return terms_; }

  /// Postings of one normalized term; nullptr when absent.
  const TermView* find_term(std::string_view term) const;

  /// The serialized payload this index serves from (no file header).
  std::string_view payload() const { return payload_; }

  /// The exact per-posting BM25F contribution, computed from the posting
  /// (not read from the stored ones), exposed so the scale and oracle
  /// suites can verify the stored bounds and scores against it.
  double posting_contribution(std::size_t term_index,
                              const Posting& posting) const;
  /// The stored upper bound of one term (max over its postings).
  double term_max_contribution(std::size_t term_index) const;

  bool operator==(const SearchIndex& other) const {
    return payload_ == other.payload_;
  }

 private:
  /// Both builds: with `cache`, through it (its index is the previous
  /// build; the caller stores the result there).
  static SearchIndex build_through(const core::Repository& repo,
                                   rt::ThreadPool* pool,
                                   obs::SpanRegistry* spans,
                                   IndexCache* cache);

  /// Parses payload_ into the directory views, validating invariants,
  /// then precomputes the scoring metadata (norms, idf, block maxima).
  Status attach();

  struct Ranked;  // internal per-shard execution state

  /// Exhaustively scores documents [lo, hi) into `out` (top-k only).
  void rank_exhaustive(const Query& query, const std::vector<char>* allowed,
                       std::size_t lo, std::size_t hi, std::size_t limit,
                       Ranked& out) const;

  /// One query term's postings inside a shard [lo, hi): positions
  /// [pos, end) of terms_[term].postings, never empty.
  struct ListRange {
    std::uint32_t term = 0;
    std::size_t pos = 0;
    std::size_t end = 0;
  };
  /// The query's terms that have postings in [lo, hi), in query order.
  std::vector<ListRange> shard_lists(const Query& query, std::size_t lo,
                                     std::size_t hi) const;
  /// True when kAuto should rank [lo, hi) with rank_accumulate: at least
  /// two lists, each holding at least 1/kDenseDivisor of the range's
  /// documents.
  static bool dense(const std::vector<ListRange>& lists, std::size_t lo,
                    std::size_t hi);
  /// Term-at-a-time scoring of [lo, hi) into one score array; identical
  /// results.
  void rank_accumulate(const std::vector<ListRange>& lists,
                       const std::vector<char>* allowed, std::size_t lo,
                       std::size_t hi, Ranked& out) const;
  /// MaxScore with block-max bounds over the lists' ranges; identical
  /// results.
  void rank_maxscore(const std::vector<ListRange>& lists,
                     const std::vector<char>* allowed, Ranked& out) const;

  /// Byte storage, shared by copies of the index; payload_ views all of it.
  std::shared_ptr<const std::string> owned_;
  std::string_view payload_;

  /// Directories into payload_.
  std::vector<DocView> docs_;
  std::vector<TermView> terms_;  ///< sorted by term
  std::unordered_map<std::string_view, std::uint32_t> doc_by_slug_;

  /// The stored BM25F contribution of every posting of term `t`, indexed
  /// like its PostingsView.
  const double* contributions(std::size_t t) const {
    return contrib_.data() + contrib_offset_[t];
  }

  /// Scoring metadata, derived from the payload on attach.
  double avg_weighted_len_ = 0.0;
  FieldBoosts boosts_;
  std::vector<double> doc_norm_;   ///< BM25 length normalization per doc
  std::vector<double> term_idf_;   ///< per term
  std::vector<double> term_max_;   ///< max contribution per term
  std::vector<double> contrib_;    ///< contribution per posting, by term
  std::vector<std::size_t> contrib_offset_;  ///< per term, into contrib_
  std::vector<std::uint32_t> block_offset_;    ///< per term, into block_*
  std::vector<std::uint32_t> block_last_doc_;  ///< last doc id per block
  std::vector<double> block_max_;  ///< max contribution per block
};

/// The previous SearchIndex::build carried to the next one: its index and
/// the core::activity_fingerprint of each of its documents. A build through
/// the cache matches every document to a previous one with the same
/// fingerprint, in order (a document that moved back past a matched one is
/// not matched). Matched documents are not tokenized: their records are
/// copied from the previous payload and their postings renumbered to the
/// new ids, merged with the postings of the tokenized rest, and a term
/// left without postings is dropped. The payload is byte-identical to a
/// build without a cache, and the cache then shares the new index with
/// whoever serves it.
class IndexCache {
 public:
  /// Documents the last build through this cache held.
  std::size_t size() const { return fingerprints_.size(); }
  /// Documents the last build through this cache tokenized / reused.
  std::size_t tokenized() const { return tokenized_; }
  std::size_t reused() const { return reused_; }

 private:
  std::shared_ptr<const SearchIndex> index_;  ///< null before a build
  std::vector<std::uint64_t> fingerprints_;  ///< per document of index_
  std::size_t tokenized_ = 0;
  std::size_t reused_ = 0;

  friend class SearchIndex;
};

}  // namespace pdcu::search
