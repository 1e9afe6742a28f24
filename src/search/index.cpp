#include "pdcu/search/index.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "pdcu/obs/span.hpp"
#include "pdcu/search/tokenizer.hpp"
#include "little_endian.hpp"

namespace pdcu::search {

namespace {

// BM25 constants (standard Robertson defaults).
constexpr double kK1 = 1.2;
constexpr double kB = 0.75;

// Relative padding applied to upper bounds before a prune decision. Bounds
// are mathematically >= any achievable score, but the running sums compared
// against them accumulate in a different order than the canonical
// query-order score, so they can differ by a few ulps; inflating the bound
// keeps every skip decision conservative and the top-k bit-identical to
// exhaustive scoring.
constexpr double kBoundPad = 1.0 + 1e-9;

constexpr std::uint32_t kNoDoc = std::numeric_limits<std::uint32_t>::max();

/// One term's postings as the encoder takes them.
struct TermRef {
  std::string_view term;
  const Posting* postings;
  std::size_t count;
};

/// Writes little-endian integers, length-prefixed strings and payload
/// records into a buffer sized up front, so encoding is one allocation and
/// straight copies.
class PayloadWriter {
 public:
  explicit PayloadWriter(char* out) : out_(out) {}
  void u16(std::uint16_t value) {
    out_[0] = static_cast<char>(value & 0xff);
    out_[1] = static_cast<char>((value >> 8) & 0xff);
    out_ += 2;
  }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      out_[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    out_ += 4;
  }
  void bytes(std::string_view s) {
    std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s);
  }
  void doc(const DocEntry& doc) {
    str(doc.slug);
    str(doc.title);
    str(doc.body);
    u32(doc.len_title);
    u32(doc.len_tags);
    u32(doc.len_body);
  }
  void posting(const Posting& posting) {
    u32(posting.doc);
    u16(posting.tf_title);
    u16(posting.tf_tags);
    u16(posting.tf_body);
  }
  char* at() const { return out_; }
  void seek(char* at) { out_ = at; }

 private:
  char* out_;
};

std::size_t doc_bytes(const DocEntry& doc) {
  return 24 + doc.slug.size() + doc.title.size() + doc.body.size();
}

std::size_t term_bytes(const TermRef& term) {
  return 8 + term.term.size() + term.count * kPostingBytes;
}

/// Encodes documents and posting lists (sorted by term) into the canonical
/// payload layout (the post-header section of the on-disk format, see
/// serialize.hpp).
std::string encode_payload(const std::vector<DocEntry>& docs,
                           const std::vector<TermRef>& terms) {
  std::size_t size = 8;
  for (const auto& doc : docs) size += doc_bytes(doc);
  for (const auto& entry : terms) size += term_bytes(entry);
  std::string out(size, '\0');
  PayloadWriter writer(out.data());
  writer.u32(static_cast<std::uint32_t>(docs.size()));
  for (const auto& doc : docs) writer.doc(doc);
  writer.u32(static_cast<std::uint32_t>(terms.size()));
  for (const auto& entry : terms) {
    writer.str(entry.term);
    writer.u32(static_cast<std::uint32_t>(entry.count));
    for (const Posting& posting :
         std::span<const Posting>(entry.postings, entry.count)) {
      writer.posting(posting);
    }
  }
  return out;
}

/// Bounds-checked reader that hands out views into the payload instead of
/// copying strings, so document text and terms exist once, in the payload.
class ViewReader {
 public:
  explicit ViewReader(std::string_view bytes) : bytes_(bytes) {}

  bool read_u32(std::uint32_t& value) {
    if (bytes_.size() - pos_ < 4) return fail();
    value = load_le<std::uint32_t>(bytes_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool read_view(std::string_view& value) {
    std::uint32_t size = 0;
    if (!read_u32(size) || bytes_.size() - pos_ < size) return fail();
    value = bytes_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  /// A raw view of exactly `size` bytes (the packed postings of one term).
  bool read_bytes(std::size_t size, std::string_view& value) {
    if (bytes_.size() - pos_ < size) return fail();
    value = bytes_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// First posting index in [lo, hi) whose document id is >= doc.
std::size_t lower_bound_doc(const PostingsView& postings, std::size_t lo,
                            std::size_t hi, std::uint32_t doc) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (postings.doc_at(mid) < doc) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double weighted_tf(const FieldBoosts& boosts, const Posting& posting) {
  return boosts.title * posting.tf_title + boosts.tags * posting.tf_tags +
         boosts.body * posting.tf_body;
}

/// The BM25F contribution of one posting; the exact same expression the
/// original exhaustive scorer used, so precomputed-metadata paths reproduce
/// its doubles bit for bit.
double contribution(double idf, double wtf, double norm) {
  return idf * wtf * (kK1 + 1.0) / (wtf + norm);
}

/// Saturating uint16 increment: term frequencies above 65535 are all
/// equally "a lot" under BM25 saturation anyway.
void bump(std::uint16_t& tf) {
  if (tf != UINT16_MAX) ++tf;
}

/// The plain-text snippet/body source of one activity: every prose section
/// plus variation and citation text, newline-joined.
std::string body_text(const core::Activity& activity) {
  std::string text = activity.details;
  const auto append = [&text](std::string_view piece) {
    if (piece.empty()) return;
    if (!text.empty()) text += '\n';
    text += piece;
  };
  append(activity.accessibility);
  append(activity.assessment);
  for (const auto& variation : activity.variations) {
    append(variation.name);
    append(variation.description);
  }
  for (const auto& citation : activity.citations) append(citation.text);
  for (const auto& author : activity.authors) append(author);
  return text;
}

/// All taxonomy terms of one activity as one tag string ("PD-Communication
/// CS2 sight ...") so tag matching goes through the same tokenizer.
std::string tag_text(const core::Activity& activity) {
  std::string text;
  for (const auto& [key, terms] : activity.tags()) {
    for (const auto& term : terms) {
      if (!text.empty()) text += ' ';
      text += term;
    }
  }
  return text;
}

/// One posting of a block, with the block-local number of its term.
struct BlockPosting {
  std::uint32_t term = 0;
  Posting posting;
};

/// A block of documents tokenized: its distinct terms, numbered in order of
/// first appearance, and every posting in document order.
struct BlockTerms {
  std::deque<std::string> text;  ///< term text by block-local number
  std::unordered_map<std::string_view, std::uint32_t> ids;  ///< into text
  std::vector<BlockPosting> postings;
};

/// Tokenizes the documents `ids` (ascending) into `block` and writes their
/// DocEntry rows to `docs` (one per id). Tokenization streams through
/// TokenWalker, and a term's text is only copied the first time the block
/// sees it — tokenizing dominates build time at corpus scale. Safe to run
/// concurrently on disjoint blocks.
void index_block(const core::Repository& repo,
                 std::span<const std::uint32_t> ids, std::span<DocEntry> docs,
                 BlockTerms& block) {
  // Per block-local term, the current document's frequencies, stamped with
  // the document; `seen` lists the document's terms in first-seen order.
  std::vector<Posting> counts;
  std::vector<std::uint32_t> seen;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t doc = ids[i];
    const auto& activity = repo.activities()[doc];
    const auto index_field = [&](std::string_view text,
                                 std::uint16_t Posting::*tf) {
      std::uint32_t length = 0;
      TokenWalker walker(text);
      while (walker.next()) {
        ++length;
        auto it = block.ids.find(walker.term());
        if (it == block.ids.end()) {
          block.text.emplace_back(walker.term());
          it = block.ids
                   .emplace(block.text.back(),
                            static_cast<std::uint32_t>(counts.size()))
                   .first;
          counts.push_back({kNoDoc, 0, 0, 0});
        }
        Posting& count = counts[it->second];
        if (count.doc != doc) {
          count = {doc, 0, 0, 0};
          seen.push_back(it->second);
        }
        bump(count.*tf);
      }
      return length;
    };
    DocEntry& entry = docs[i];
    entry.slug = activity.slug;
    entry.title = activity.title;
    entry.body = body_text(activity);
    entry.len_title = index_field(activity.title, &Posting::tf_title);
    entry.len_tags = index_field(tag_text(activity), &Posting::tf_tags);
    entry.len_body = index_field(entry.body, &Posting::tf_body);
    for (const std::uint32_t term : seen) {
      block.postings.push_back({term, counts[term]});
    }
    seen.clear();
  }
}

/// Every posting of some documents grouped by term: `terms` sorted, each
/// viewing its run of `postings`, which ascend by document.
struct Inverted {
  std::vector<Posting> postings;
  std::vector<TermRef> terms;
};

/// Merges the blocks (ascending document ranges, in order) without a map
/// per term: block-local term numbers map to global ones, a count per term
/// sizes each term's run, and one pass over the blocks' postings in order
/// places every posting, so each run comes out sorted by document.
Inverted invert(const std::vector<BlockTerms>& blocks) {
  std::unordered_map<std::string_view, std::uint32_t> ids;
  std::vector<std::string_view> terms;
  std::vector<std::vector<std::uint32_t>> to_global(blocks.size());
  std::size_t total = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    to_global[b].reserve(blocks[b].text.size());
    for (const std::string& term : blocks[b].text) {
      const auto [it, added] =
          ids.try_emplace(term, static_cast<std::uint32_t>(terms.size()));
      if (added) terms.push_back(term);
      to_global[b].push_back(it->second);
    }
    total += blocks[b].postings.size();
  }

  std::vector<std::uint32_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&terms](std::uint32_t a, std::uint32_t b) {
              return terms[a] < terms[b];
            });
  // Postings per term first; then, in sorted term order, each term's next
  // free slot in the flat postings array.
  std::vector<std::size_t> cursor(terms.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const BlockPosting& posting : blocks[b].postings) {
      ++cursor[to_global[b][posting.term]];
    }
  }
  Inverted out;
  out.postings.resize(total);
  out.terms.reserve(terms.size());
  std::size_t offset = 0;
  for (const std::uint32_t id : order) {
    out.terms.push_back({terms[id], out.postings.data() + offset, cursor[id]});
    const std::size_t count = cursor[id];
    cursor[id] = offset;
    offset += count;
  }

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (const BlockPosting& posting : blocks[b].postings) {
      out.postings[cursor[to_global[b][posting.term]]++] = posting.posting;
    }
  }
  return out;
}

/// The bytes of one document's record in its index's payload.
std::string_view doc_record(const DocView& doc) {
  const char* begin = doc.slug.data() - 4;
  const char* end = doc.body.data() + doc.body.size() + 12;
  return {begin, static_cast<std::size_t>(end - begin)};
}

/// The payload of `old` with its documents renumbered and the tokenized
/// ones spliced in. `new_to_old` holds, per new document, its old id, or
/// kNoDoc for a tokenized one, whose row is the next of `fresh_docs`;
/// `old_to_new` is its inverse, kNoDoc for a removed old document. Both are
/// monotone, so a term's kept postings stay ascending once renumbered.
std::string splice_payload(const SearchIndex& old,
                           const std::vector<std::uint32_t>& old_to_new,
                           const std::vector<std::uint32_t>& new_to_old,
                           const std::vector<DocEntry>& fresh_docs,
                           const Inverted& fresh) {
  // Kept records and postings fit in the old payload's bytes.
  std::size_t bound = 8 + old.payload().size();
  for (const auto& doc : fresh_docs) bound += doc_bytes(doc);
  for (const auto& entry : fresh.terms) bound += term_bytes(entry);
  std::string out(bound, '\0');
  PayloadWriter writer(out.data());

  writer.u32(static_cast<std::uint32_t>(new_to_old.size()));
  std::size_t next_fresh = 0;
  for (const std::uint32_t from : new_to_old) {
    if (from == kNoDoc) {
      writer.doc(fresh_docs[next_fresh++]);
    } else {
      writer.bytes(doc_record(old.docs()[from]));
    }
  }

  // Old and fresh terms merge in sorted order; a term's kept postings
  // (renumbered) and fresh postings merge by document.
  char* const term_count_at = writer.at();
  writer.u32(0);
  std::uint32_t term_count = 0;
  const auto& old_terms = old.terms();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_terms.size() || j < fresh.terms.size()) {
    // Below zero: the old term comes first; zero: both hold it.
    const int order = i == old_terms.size()     ? 1
                      : j == fresh.terms.size() ? -1
                      : old_terms[i].term.compare(fresh.terms[j].term);
    const std::string_view term =
        order <= 0 ? old_terms[i].term : fresh.terms[j].term;
    const PostingsView kept =
        order <= 0 ? old_terms[i++].postings : PostingsView();
    std::span<const Posting> added;
    if (order >= 0) {
      added = {fresh.terms[j].postings, fresh.terms[j].count};
      ++j;
    }

    char* const term_at = writer.at();
    writer.str(term);
    char* const count_at = writer.at();
    writer.u32(0);
    std::size_t a = 0;
    for (Posting posting : kept) {
      posting.doc = old_to_new[posting.doc];
      if (posting.doc == kNoDoc) continue;
      for (; a < added.size() && added[a].doc < posting.doc; ++a) {
        writer.posting(added[a]);
      }
      writer.posting(posting);
    }
    for (; a < added.size(); ++a) writer.posting(added[a]);
    const std::size_t count =
        static_cast<std::size_t>(writer.at() - count_at - 4) / kPostingBytes;
    if (count == 0) {
      writer.seek(term_at);  // every posting left with its document
      continue;
    }
    PayloadWriter(count_at).u32(static_cast<std::uint32_t>(count));
    ++term_count;
  }
  PayloadWriter(term_count_at).u32(term_count);
  out.resize(static_cast<std::size_t>(writer.at() - out.data()));
  return out;
}

}  // namespace

Posting PostingsView::operator[](std::size_t i) const {
  const char* p = data_ + i * kPostingBytes;
  Posting posting;
  posting.doc = load_le<std::uint32_t>(p);
  posting.tf_title = load_le<std::uint16_t>(p + 4);
  posting.tf_tags = load_le<std::uint16_t>(p + 6);
  posting.tf_body = load_le<std::uint16_t>(p + 8);
  return posting;
}

std::uint32_t PostingsView::doc_at(std::size_t i) const {
  return load_le<std::uint32_t>(data_ + i * kPostingBytes);
}

/// Per-shard ranking state: a bounded top-k heap ordered so the *worst*
/// kept entry sits at the front and is evicted first. Ordering is total and
/// deterministic: higher score wins, equal scores break toward the lower
/// document id (curation order).
struct SearchIndex::Ranked {
  struct Entry {
    double score = 0.0;
    std::uint32_t doc = 0;
  };

  static bool better(const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }

  explicit Ranked(std::size_t limit) : limit_(limit) {}

  bool full() const { return heap_.size() >= limit_; }
  /// Score of the worst kept entry; only meaningful when full(). A new
  /// candidate whose score is strictly below this can never enter.
  double threshold() const { return heap_.front().score; }

  void offer(double score, std::uint32_t doc) {
    const Entry entry{score, doc};
    if (heap_.size() < limit_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), better);
    } else if (better(entry, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), better);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), better);
    }
  }

  std::vector<Entry> sorted() && {
    std::sort(heap_.begin(), heap_.end(), better);
    return std::move(heap_);
  }

 private:
  std::size_t limit_ = 0;
  std::vector<Entry> heap_;
};

SearchIndex::SearchIndex() {
  // Canonical empty payload: zero documents, zero terms.
  std::string payload(8, '\0');
  auto storage = std::make_shared<const std::string>(std::move(payload));
  payload_ = *storage;
  owned_ = std::move(storage);
  const Status status = attach();
  (void)status;  // the canonical empty payload always attaches
}

SearchIndex SearchIndex::build(const core::Repository& repo,
                               rt::ThreadPool* pool,
                               obs::SpanRegistry* spans) {
  return build_through(repo, pool, spans, nullptr);
}

std::shared_ptr<const SearchIndex> SearchIndex::build(
    const core::Repository& repo, IndexCache& cache, rt::ThreadPool* pool,
    obs::SpanRegistry* spans) {
  auto index = std::make_shared<const SearchIndex>(
      build_through(repo, pool, spans, &cache));
  cache.index_ = index;
  return index;
}

SearchIndex SearchIndex::build_through(const core::Repository& repo,
                                       rt::ThreadPool* pool,
                                       obs::SpanRegistry* spans,
                                       IndexCache* cache) {
  const auto started = std::chrono::steady_clock::now();
  const std::size_t n = repo.activities().size();
  static const SearchIndex kEmpty;
  const SearchIndex& old = cache != nullptr && cache->index_ != nullptr
                               ? *cache->index_
                               : kEmpty;

  // Match each document to the first previous one with its fingerprint
  // past the last match, so both id tables stay monotone. `next_same`
  // links the previous documents of one fingerprint in id order. Without
  // a cache there is no previous document and every one is tokenized.
  std::vector<std::uint64_t> fingerprints(cache != nullptr ? n : 0);
  std::vector<std::uint32_t> new_to_old(n, kNoDoc);
  std::vector<std::uint32_t> old_to_new(old.doc_count(), kNoDoc);
  std::unordered_map<std::uint64_t, std::uint32_t> first_old;
  first_old.reserve(old.doc_count());
  std::vector<std::uint32_t> next_same(old.doc_count(), kNoDoc);
  for (std::size_t o = old.doc_count(); o-- > 0;) {
    const auto [it, added] = first_old.try_emplace(
        cache->fingerprints_[o], static_cast<std::uint32_t>(o));
    if (!added) {
      next_same[o] = it->second;
      it->second = static_cast<std::uint32_t>(o);
    }
  }
  std::vector<std::uint32_t> fresh_ids;  // the documents to tokenize
  std::uint32_t min_old = 0;  // the lowest previous id a match may take
  for (std::size_t d = 0; d < n; ++d) {
    if (cache != nullptr) {
      fingerprints[d] = repo.fingerprint(d);
      const auto it = first_old.find(fingerprints[d]);
      std::uint32_t o = it == first_old.end() ? kNoDoc : it->second;
      while (o < min_old) o = next_same[o];  // kNoDoc ends the walk
      if (o != kNoDoc) {
        new_to_old[d] = o;
        old_to_new[o] = static_cast<std::uint32_t>(d);
        min_old = o + 1;
        continue;
      }
    }
    fresh_ids.push_back(static_cast<std::uint32_t>(d));
  }

  // The unmatched documents in ascending blocks, one per worker (or one
  // for a serial build).
  const std::size_t fresh_count = fresh_ids.size();
  std::vector<DocEntry> fresh_docs(fresh_count);
  const std::size_t block_count =
      pool != nullptr && fresh_count > 1
          ? std::min<std::size_t>(pool->size(), fresh_count)
          : 1;
  const std::size_t chunk = (fresh_count + block_count - 1) / block_count;
  std::vector<BlockTerms> blocks(block_count);
  const auto index_blocks = [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      const std::size_t lo = std::min(fresh_count, b * chunk);
      const std::size_t hi = std::min(fresh_count, lo + chunk);
      index_block(repo, std::span(fresh_ids).subspan(lo, hi - lo),
                  std::span(fresh_docs).subspan(lo, hi - lo), blocks[b]);
    }
  };
  if (block_count > 1) {
    pool->parallel_for(0, block_count, index_blocks);
  } else {
    index_blocks(0, block_count);
  }

  const auto indexed = std::chrono::steady_clock::now();
  std::string payload =
      splice_payload(old, old_to_new, new_to_old, fresh_docs, invert(blocks));
  // The payload holds every tokenized row and posting now: free them
  // before attach derives a score per posting.
  blocks = {};
  fresh_docs = {};
  // A spliced index satisfies every invariant by construction.
  SearchIndex result = from_payload(std::move(payload)).value();

  if (cache != nullptr) {
    cache->fingerprints_ = std::move(fingerprints);
    cache->tokenized_ = fresh_count;
    cache->reused_ = n - fresh_count;
  }

  if (spans != nullptr) {
    const auto finished = std::chrono::steady_clock::now();
    const auto us = [](std::chrono::steady_clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    spans->record("search.build", us(finished - started));
    spans->record("search.merge", us(finished - indexed));
  }
  return result;
}

Expected<SearchIndex> SearchIndex::from_parts(std::vector<DocEntry> docs,
                                              std::vector<TermPostings> terms) {
  std::vector<TermRef> refs;
  refs.reserve(terms.size());
  for (const auto& entry : terms) {
    refs.push_back({entry.term, entry.postings.data(), entry.postings.size()});
  }
  return from_payload(encode_payload(docs, refs));
}

Expected<SearchIndex> SearchIndex::from_payload(std::string payload) {
  SearchIndex index;
  auto storage = std::make_shared<const std::string>(std::move(payload));
  index.payload_ = *storage;
  index.owned_ = std::move(storage);
  const Status status = index.attach();
  if (!status) return status.error();
  return index;
}

Status SearchIndex::attach() {
  docs_.clear();
  terms_.clear();
  doc_by_slug_.clear();
  doc_norm_.clear();
  term_idf_.clear();
  term_max_.clear();
  contrib_.clear();
  contrib_offset_.clear();
  block_offset_.clear();
  block_last_doc_.clear();
  block_max_.clear();

  // Parse the payload into directory views (zero-copy).
  ViewReader reader(payload_);
  std::uint32_t doc_count = 0;
  reader.read_u32(doc_count);
  for (std::uint32_t d = 0; reader.ok() && d < doc_count; ++d) {
    DocView doc;
    reader.read_view(doc.slug);
    reader.read_view(doc.title);
    reader.read_view(doc.body);
    reader.read_u32(doc.len_title);
    reader.read_u32(doc.len_tags);
    reader.read_u32(doc.len_body);
    if (reader.ok()) docs_.push_back(doc);
  }
  std::uint32_t term_count = 0;
  reader.read_u32(term_count);
  std::size_t total_postings = 0;
  for (std::uint32_t t = 0; reader.ok() && t < term_count; ++t) {
    std::string_view term;
    reader.read_view(term);
    std::uint32_t posting_count = 0;
    reader.read_u32(posting_count);
    std::string_view packed;
    reader.read_bytes(std::size_t(posting_count) * kPostingBytes, packed);
    if (reader.ok()) {
      terms_.push_back({term, PostingsView(packed.data(), posting_count)});
      total_postings += posting_count;
    }
  }
  if (!reader.ok() || !reader.exhausted()) {
    return Error::make("search.index.truncated",
                       "index payload truncated or trailing bytes");
  }

  // Validate structural invariants (same guarantees the builder provides).
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    if (t > 0 && !(terms_[t - 1].term < terms_[t].term)) {
      return Error::make(
          "search.index.order",
          "terms out of order at '" + std::string(terms_[t].term) + "'");
    }
    if (terms_[t].postings.empty()) {
      return Error::make(
          "search.index.postings",
          "term '" + std::string(terms_[t].term) + "' has no postings");
    }
    // Every posting counts at least one occurrence, and no more in a field
    // than the field has tokens. That keeps every BM25F contribution finite
    // and above zero, which the scorers rely on (see rank_accumulate).
    std::uint32_t last_doc = 0;
    bool first = true;
    for (const Posting posting : terms_[t].postings) {
      const std::uint32_t doc = posting.doc;
      if (doc >= docs_.size() || (!first && doc <= last_doc) ||
          posting.tf_title + posting.tf_tags + posting.tf_body == 0 ||
          posting.tf_title > docs_[doc].len_title ||
          posting.tf_tags > docs_[doc].len_tags ||
          posting.tf_body > docs_[doc].len_body) {
        return Error::make(
            "search.index.postings",
            "bad posting list for '" + std::string(terms_[t].term) + "'");
      }
      last_doc = doc;
      first = false;
    }
  }

  // BM25 length normalization per document.
  doc_by_slug_.reserve(docs_.size());
  double total = 0.0;
  for (std::size_t d = 0; d < docs_.size(); ++d) {
    doc_by_slug_.emplace(docs_[d].slug, static_cast<std::uint32_t>(d));
    total += boosts_.title * docs_[d].len_title +
             boosts_.tags * docs_[d].len_tags +
             boosts_.body * docs_[d].len_body;
  }
  avg_weighted_len_ = docs_.empty() ? 0.0 : total / double(docs_.size());
  doc_norm_.resize(docs_.size());
  for (std::size_t d = 0; d < docs_.size(); ++d) {
    const double doc_len = boosts_.title * docs_[d].len_title +
                           boosts_.tags * docs_[d].len_tags +
                           boosts_.body * docs_[d].len_body;
    doc_norm_[d] = kK1 * (1.0 - kB + kB * doc_len / avg_weighted_len_);
  }

  // Per-term idf, every posting's contribution (the rankers read it
  // instead of decoding and dividing), plus the MaxScore metadata: the
  // maximum contribution of any posting of the term, and the same maximum
  // per kBlockPostings-posting block alongside each block's last document
  // id (for seek-time block lookup).
  const double n = double(docs_.size());
  term_idf_.resize(terms_.size());
  term_max_.resize(terms_.size());
  contrib_.reserve(total_postings);
  contrib_offset_.reserve(terms_.size());
  block_offset_.reserve(terms_.size() + 1);
  block_offset_.push_back(0);
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    const PostingsView& postings = terms_[t].postings;
    const double df = double(postings.size());
    const double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    term_idf_[t] = idf;
    contrib_offset_.push_back(contrib_.size());
    double max_term = 0.0;
    double max_block = 0.0;
    for (std::size_t p = 0; p < postings.size(); ++p) {
      const Posting posting = postings[p];
      const double value = contribution(idf, weighted_tf(boosts_, posting),
                                        doc_norm_[posting.doc]);
      contrib_.push_back(value);
      max_term = std::max(max_term, value);
      max_block = std::max(max_block, value);
      const bool block_end =
          (p + 1) % kBlockPostings == 0 || p + 1 == postings.size();
      if (block_end) {
        block_last_doc_.push_back(posting.doc);
        block_max_.push_back(max_block);
        max_block = 0.0;
      }
    }
    term_max_[t] = max_term;
    block_offset_.push_back(static_cast<std::uint32_t>(block_max_.size()));
  }

  return Status::ok();
}

const TermView* SearchIndex::find_term(std::string_view term) const {
  const auto it =
      std::lower_bound(terms_.begin(), terms_.end(), term,
                       [](const TermView& entry, std::string_view t) {
                         return entry.term < t;
                       });
  if (it == terms_.end() || it->term != term) return nullptr;
  return &*it;
}

double SearchIndex::posting_contribution(std::size_t term_index,
                                         const Posting& posting) const {
  return contribution(term_idf_[term_index], weighted_tf(boosts_, posting),
                      doc_norm_[posting.doc]);
}

double SearchIndex::term_max_contribution(std::size_t term_index) const {
  return term_max_[term_index];
}

void SearchIndex::rank_exhaustive(const Query& query,
                                  const std::vector<char>* allowed,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t limit, Ranked& out) const {
  // BM25F accumulation over the shard. query.terms is deduplicated by
  // parse_query, and postings iterate ascending by doc, so per-document
  // scores sum in a fixed order and rankings are deterministic.
  std::vector<double> scores(hi - lo, 0.0);
  std::vector<char> matched(hi - lo, 0);
  for (const auto& term : query.terms) {
    const TermView* entry = find_term(term);
    if (entry == nullptr) continue;
    const std::size_t t = static_cast<std::size_t>(entry - terms_.data());
    const double idf = term_idf_[t];
    const PostingsView& postings = entry->postings;
    std::size_t p = lower_bound_doc(postings, 0, postings.size(),
                                    static_cast<std::uint32_t>(lo));
    const std::size_t p_end = lower_bound_doc(postings, p, postings.size(),
                                              static_cast<std::uint32_t>(hi));
    for (; p < p_end; ++p) {
      const Posting posting = postings[p];
      if (allowed != nullptr && !(*allowed)[posting.doc]) continue;
      scores[posting.doc - lo] += contribution(
          idf, weighted_tf(boosts_, posting), doc_norm_[posting.doc]);
      matched[posting.doc - lo] = 1;
    }
  }
  (void)limit;
  for (std::size_t d = lo; d < hi; ++d) {
    if (matched[d - lo]) {
      out.offer(scores[d - lo], static_cast<std::uint32_t>(d));
    }
  }
}

std::vector<SearchIndex::ListRange> SearchIndex::shard_lists(
    const Query& query, std::size_t lo, std::size_t hi) const {
  // In query-term order — the canonical score summation order.
  std::vector<ListRange> lists;
  lists.reserve(query.terms.size());
  for (const auto& term : query.terms) {
    const TermView* entry = find_term(term);
    if (entry == nullptr) continue;
    const PostingsView& postings = entry->postings;
    ListRange list;
    list.term = static_cast<std::uint32_t>(entry - terms_.data());
    list.pos = lower_bound_doc(postings, 0, postings.size(),
                               static_cast<std::uint32_t>(lo));
    list.end = lower_bound_doc(postings, list.pos, postings.size(),
                               static_cast<std::uint32_t>(hi));
    if (list.pos < list.end) lists.push_back(list);
  }
  return lists;
}

bool SearchIndex::dense(const std::vector<ListRange>& lists, std::size_t lo,
                        std::size_t hi) {
  const std::size_t min_postings = (hi - lo) / kDenseDivisor;
  return lists.size() >= 2 &&
         std::all_of(lists.begin(), lists.end(),
                     [min_postings](const ListRange& list) {
                       return list.end - list.pos >= min_postings;
                     });
}

void SearchIndex::rank_accumulate(const std::vector<ListRange>& lists,
                                  const std::vector<char>* allowed,
                                  std::size_t lo, std::size_t hi,
                                  Ranked& out) const {
  // Term-at-a-time: each list adds its stored contributions into one
  // score slot per document of the shard, list by list in query-term order
  // — the summation order of rank_exhaustive, and the same doubles, so
  // every score matches it bit for bit. attach() guarantees every
  // contribution is above zero, so a slot above zero is exactly a matched
  // document.
  thread_local std::vector<double> scores;
  scores.assign(hi - lo, 0.0);
  for (const ListRange& list : lists) {
    const PostingsView& postings = terms_[list.term].postings;
    const double* contrib = contributions(list.term);
    for (std::size_t p = list.pos; p < list.end; ++p) {
      scores[postings.doc_at(p) - lo] += contrib[p];
    }
  }
  for (std::size_t d = lo; d < hi; ++d) {
    const double score = scores[d - lo];
    if (score <= 0.0) continue;
    // Documents arrive in ascending order, so one that only ties the
    // threshold loses the tie-break to the lower-numbered kept document.
    if (out.full() && score <= out.threshold()) continue;
    if (allowed != nullptr && !(*allowed)[d]) continue;
    out.offer(score, static_cast<std::uint32_t>(d));
  }
}

void SearchIndex::rank_maxscore(const std::vector<ListRange>& lists,
                                const std::vector<char>* allowed,
                                Ranked& out) const {
  // Document-at-a-time block-max WAND. Documents whose whole-list (and then
  // whole-block) upper bounds cannot beat the current top-k threshold are
  // skipped without being scored; every surviving candidate is scored
  // exactly from the stored contributions, in query-term order, so results
  // match the exhaustive scorer bit for bit.
  struct Cur {
    std::uint32_t term = 0;  ///< index into terms_
    PostingsView postings;
    const double* contrib = nullptr;  ///< stored contribution per posting
    std::size_t pos = 0;
    std::size_t end = 0;
    std::uint32_t doc = kNoDoc;  ///< doc at pos; kNoDoc when exhausted
    /// Cached bounds of the block containing pos, refreshed lazily when the
    /// cursor crosses block_end_pos — block lookups happen per block, never
    /// per document. (Single-list fast path only.)
    std::size_t block_end_pos = 0;  ///< first position past the cached block
    double block_max = 0.0;
    std::uint32_t block_last = 0;  ///< last doc id of the cached block
    /// Shallow block pointer for block-max pivoting: index of the first
    /// block whose last document reaches the current pivot. Monotone.
    std::size_t sb = 0;
  };
  const auto refresh_block = [this](Cur& c) {
    const std::size_t b = block_offset_[c.term] + c.pos / kBlockPostings;
    c.block_end_pos = (c.pos / kBlockPostings + 1) * kBlockPostings;
    c.block_max = block_max_[b];
    c.block_last = block_last_doc_[b];
  };

  // Cursors in query-term order — the canonical score summation order.
  std::vector<Cur> cursors;
  cursors.reserve(lists.size());
  for (const ListRange& list : lists) {
    Cur cursor;
    cursor.term = list.term;
    cursor.postings = terms_[list.term].postings;
    cursor.contrib = contributions(list.term);
    cursor.pos = list.pos;
    cursor.end = list.end;
    cursor.doc = cursor.postings.doc_at(cursor.pos);
    cursor.sb = block_offset_[cursor.term] + cursor.pos / kBlockPostings;
    cursors.push_back(cursor);
  }
  const std::size_t m = cursors.size();
  if (m == 0) return;

  if (m == 1) {
    // Single-list fast path: no pivoting, no contribution reordering — walk
    // the list block by block, dropping every block whose maximum cannot
    // beat the current top-k threshold. The common head-of-Zipf single-term
    // query touches only the strongest few blocks this way.
    Cur& c = cursors[0];
    while (c.pos < c.end) {
      if (c.pos >= c.block_end_pos) refresh_block(c);
      const std::size_t stop = std::min(c.block_end_pos, c.end);
      if (out.full() && c.block_max * kBoundPad < out.threshold()) {
        c.pos = stop;
        continue;
      }
      for (; c.pos < stop; ++c.pos) {
        const std::uint32_t doc = c.postings.doc_at(c.pos);
        if (allowed != nullptr && !(*allowed)[doc]) continue;
        out.offer(c.contrib[c.pos], doc);
      }
    }
    return;
  }

  // Block-max WAND over the remaining lists. Cursors stay in query order
  // (their index is the canonical score-summation position); a doc-sorted
  // view `sorted` drives pivoting. Each round:
  //
  //   1. Sort cursors by current document. The *pivot* is the first sorted
  //      position where the cumulative whole-list maxima reach the top-k
  //      threshold — no document before the pivot's can make the heap, so
  //      the lists behind it leapfrog straight to the pivot document.
  //   2. Before scoring, re-check with *block* maxima: each list's bound
  //      shrinks to the max of the block that would contain the pivot
  //      document. When even that cannot reach the threshold, every
  //      document up to the nearest block boundary is dead and the cursors
  //      jump the whole stretch without touching a posting.
  //
  // Doc-sorted pivoting is what keeps dense two-term queries cheap: the
  // pivot alternates between the lists, so each round gallops over the run
  // of documents the other list does not contain — where min-doc pivoting
  // would score every candidate in either list.
  const auto advance = [](Cur& c) {
    ++c.pos;
    c.doc = c.pos < c.end ? c.postings.doc_at(c.pos) : kNoDoc;
  };
  // First posting at or past `target`: gallop, then binary-search the last
  // doubled span. Adjacent targets cost O(1), far ones O(log distance) —
  // the right shape for leapfrogging intersections.
  const auto seek = [](Cur& c, std::uint32_t target) {
    if (c.doc >= target) return;  // also covers exhausted (doc == kNoDoc)
    std::size_t s_lo = c.pos;     // invariant: doc_at(s_lo) < target
    std::size_t step = 1;
    while (s_lo + step < c.end && c.postings.doc_at(s_lo + step) < target) {
      s_lo += step;
      step <<= 1;
    }
    std::size_t s_hi = std::min(s_lo + step, c.end);
    ++s_lo;
    while (s_lo < s_hi) {
      const std::size_t mid = s_lo + (s_hi - s_lo) / 2;
      if (c.postings.doc_at(mid) < target) {
        s_lo = mid + 1;
      } else {
        s_hi = mid;
      }
    }
    c.pos = s_lo;
    c.doc = s_lo < c.end ? c.postings.doc_at(s_lo) : kNoDoc;
  };
  // Advances the cursor's shallow block pointer to the block that would
  // hold `target` (the first block whose last document reaches it). The
  // pointer only moves forward, so the walk is amortized O(1) per query.
  const auto shallow_to = [this](Cur& c, std::uint32_t target) {
    const std::size_t sb_end = block_offset_[c.term + 1];
    while (c.sb < sb_end && block_last_doc_[c.sb] < target) ++c.sb;
  };

  // Doc-sorted view of the cursors. Re-sorted by insertion each round: the
  // order barely changes between rounds, so this is effectively linear.
  std::vector<std::uint32_t> sorted(m);
  std::iota(sorted.begin(), sorted.end(), 0);

  // Contributions of the pivot document, as (query position, value); the
  // final score sums them sorted by position — the canonical order.
  std::vector<std::pair<std::uint32_t, double>> parts;
  parts.reserve(m);

  while (true) {
    for (std::size_t i = 1; i < m; ++i) {
      const std::uint32_t v = sorted[i];
      const std::uint32_t doc = cursors[v].doc;
      std::size_t j = i;
      for (; j > 0 && cursors[sorted[j - 1]].doc > doc; --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = v;
    }
    const bool full = out.full();
    const double theta = full ? out.threshold() : 0.0;

    // Pivot: first sorted position where the cumulative whole-list maxima
    // could reach the threshold. Documents seen only by lists before it
    // are bounded below theta, so skipping them is rank-safe.
    std::size_t p = 0;
    if (full) {
      double acc = 0.0;
      for (p = 0; p < m; ++p) {
        acc += term_max_[cursors[sorted[p]].term];
        if (acc * kBoundPad >= theta) break;
      }
      if (p == m) break;  // no remaining document can displace the top-k
    }
    const std::uint32_t pivot_doc = cursors[sorted[p]].doc;
    if (pivot_doc == kNoDoc) break;  // the lists that matter are exhausted
    // Fold in every further list already sitting on the pivot document, so
    // the block-max skip target below lands strictly past it.
    while (p + 1 < m && cursors[sorted[p + 1]].doc == pivot_doc) ++p;
    const std::uint32_t next_doc =
        p + 1 < m ? cursors[sorted[p + 1]].doc : kNoDoc;

    if (full) {
      // Block-max refinement over the pivot-relevant lists. The bound is
      // valid for every document in [pivot_doc, block_end]: each list's
      // postings there stay inside its shallow block, and the remaining
      // lists only start at next_doc, past any target we would skip to.
      double block_sum = 0.0;
      std::uint32_t block_end = kNoDoc;
      for (std::size_t i = 0; i <= p; ++i) {
        Cur& c = cursors[sorted[i]];
        shallow_to(c, pivot_doc);
        if (c.sb < block_offset_[c.term + 1]) {
          block_sum += block_max_[c.sb];
          block_end = std::min(block_end, block_last_doc_[c.sb]);
        }
      }
      if (block_sum * kBoundPad < theta) {
        std::uint32_t target = next_doc;
        if (block_end != kNoDoc && block_end + 1 < target) {
          target = block_end + 1;
        }
        for (std::size_t i = 0; i <= p; ++i) seek(cursors[sorted[i]], target);
        continue;
      }
    }

    if (cursors[sorted[0]].doc == pivot_doc) {
      // Aligned: lists sorted[0..p] all sit on the pivot document. Score it
      // exactly, summing in query-term order so the result matches the
      // exhaustive scorer bit for bit.
      if (allowed == nullptr || (*allowed)[pivot_doc]) {
        parts.clear();
        for (std::size_t i = 0; i <= p; ++i) {
          const Cur& c = cursors[sorted[i]];
          parts.emplace_back(sorted[i], c.contrib[c.pos]);
        }
        std::sort(parts.begin(), parts.end());
        double score = 0.0;
        for (const auto& [pos, value] : parts) score += value;
        out.offer(score, pivot_doc);
      }
      for (std::size_t i = 0; i <= p; ++i) advance(cursors[sorted[i]]);
    } else {
      // Not aligned yet, which needs a full heap (while it fills, the pivot
      // is the first sorted list), so the block refinement above left every
      // shallow pointer of [0, p] at pivot_doc. Probe before seeking: the
      // lists on pivot_doc give their exact contributions, each lagging
      // list at most its block maximum there, and the lists past p start
      // after it. When that bound misses the threshold, pivot_doc cannot
      // enter; step the lists on it and leave the lagging ones where they
      // are.
      double bound = 0.0;
      std::size_t lagging = 0;  // sorted[0, lagging) sit before pivot_doc
      for (std::size_t i = 0; i <= p; ++i) {
        const Cur& c = cursors[sorted[i]];
        if (c.doc == pivot_doc) {
          bound += c.contrib[c.pos];
        } else {
          ++lagging;
          if (c.sb < block_offset_[c.term + 1]) bound += block_max_[c.sb];
        }
      }
      if (bound * kBoundPad < theta) {
        for (std::size_t i = lagging; i <= p; ++i) advance(cursors[sorted[i]]);
        continue;
      }
      // Leapfrog the lagging lists to the pivot. The documents they jump
      // over live only in lists whose combined maxima sit below the
      // threshold.
      for (std::size_t i = 0; i < lagging; ++i) {
        seek(cursors[sorted[i]], pivot_doc);
      }
    }
  }
}

std::vector<Hit> SearchIndex::search(const Query& query,
                                     const tax::TermIndex* taxonomy,
                                     std::size_t limit) const {
  SearchOptions options;
  options.limit = limit;
  return search(query, taxonomy, options);
}

std::vector<Hit> SearchIndex::search(const Query& query,
                                     const tax::TermIndex* taxonomy,
                                     const SearchOptions& options) const {
  std::vector<Hit> hits;
  const std::size_t limit = options.limit;
  if (docs_.empty() || query.empty() || limit == 0) return hits;

  // Resolve filters to an allowed-document mask. An unresolvable filter
  // (unknown term, ambiguous prefix, or no taxonomy index) matches nothing:
  // silently ignoring a filter would return confidently wrong results.
  //
  // Resolution is the expensive half of a filtered query — every tagged
  // page's slug hashes through doc_by_slug_ — so resolved sets memoize in
  // options.filter_cache when the caller provides one. The single-filter
  // case (the common one) then borrows the cached mask without copying.
  std::vector<char> allowed_mask;
  const std::vector<char>* allowed = nullptr;
  std::shared_ptr<const FilterCache::Entry> cached;  // keeps the mask alive
  if (!query.filters.empty()) {
    for (std::size_t f = 0; f < query.filters.size(); ++f) {
      const auto& filter = query.filters[f];
      if (taxonomy == nullptr) return hits;
      const auto term = taxonomy->resolve_term(filter.taxonomy, filter.value);
      if (!term.has_value()) return hits;
      const auto compute = [&] {
        FilterCache::Entry entry;
        entry.mask.assign(docs_.size(), 0);
        const auto* pages = taxonomy->find_pages(filter.taxonomy, *term);
        if (pages != nullptr) {
          entry.docs.reserve(pages->size());
          for (const auto& page : *pages) {
            const auto it = doc_by_slug_.find(page.slug);
            if (it == doc_by_slug_.end() || entry.mask[it->second]) continue;
            entry.mask[it->second] = 1;
            entry.docs.push_back(it->second);
          }
          std::sort(entry.docs.begin(), entry.docs.end());
        }
        return entry;
      };
      std::shared_ptr<const FilterCache::Entry> entry;
      if (options.filter_cache != nullptr) {
        entry = options.filter_cache->get(filter.taxonomy, *term, compute);
      } else {
        entry = std::make_shared<const FilterCache::Entry>(compute());
      }
      if (f == 0) {
        cached = std::move(entry);
        allowed = &cached->mask;
      } else {
        if (allowed != &allowed_mask) {  // second filter: switch to a copy
          allowed_mask = *allowed;
          allowed = &allowed_mask;
        }
        for (std::size_t d = 0; d < allowed_mask.size(); ++d) {
          allowed_mask[d] = allowed_mask[d] && entry->mask[d];
        }
      }
    }
  }

  std::vector<Ranked::Entry> top;
  if (query.terms.empty()) {
    // Pure taxonomy browse: filter-allowed documents in curation order,
    // score 0 (equal scores order by doc id, i.e. curation order).
    for (std::size_t d = 0; d < docs_.size() && top.size() < limit; ++d) {
      if ((*allowed)[d]) {
        top.push_back({0.0, static_cast<std::uint32_t>(d)});
      }
    }
  } else {
    const auto run_range = [&](std::size_t lo, std::size_t hi) {
      Ranked ranked(limit);
      if (options.algo == SearchOptions::Algo::kExhaustive) {
        rank_exhaustive(query, allowed, lo, hi, limit, ranked);
      } else {
        const auto lists = shard_lists(query, lo, hi);
        if (options.algo == SearchOptions::Algo::kAuto &&
            dense(lists, lo, hi)) {
          rank_accumulate(lists, allowed, lo, hi, ranked);
        } else {
          rank_maxscore(lists, allowed, ranked);
        }
      }
      return std::move(ranked).sorted();
    };
    rt::ThreadPool* pool = options.pool;
    if (pool != nullptr && pool->size() > 1 &&
        docs_.size() >= 2 * options.min_shard_docs) {
      // Per-shard top-k on the pool, merged in index order. Per-document
      // scores are identical in every shard layout (canonical summation),
      // and the merge keeps the globally best `limit` entries under the
      // same total order, so the result is bit-identical to a serial run.
      top = pool->parallel_reduce<std::vector<Ranked::Entry>>(
          0, docs_.size(), {},
          [&run_range](std::size_t lo, std::size_t hi) {
            return run_range(lo, hi);
          },
          [limit](std::vector<Ranked::Entry> left,
                  std::vector<Ranked::Entry> right) {
            std::vector<Ranked::Entry> merged;
            merged.reserve(std::min(left.size() + right.size(), limit));
            std::merge(left.begin(), left.end(), right.begin(), right.end(),
                       std::back_inserter(merged), Ranked::better);
            if (merged.size() > limit) merged.resize(limit);
            return merged;
          });
    } else {
      top = run_range(0, docs_.size());
    }
  }

  // A snippet looks only for the query terms its hit's body holds:
  // index_block counts tf_body over exactly the tokens of DocView::body, so
  // the other terms cannot match there, and without them the snippet's
  // walk settles once the present terms are covered.
  std::vector<const TermView*> snippet_lists;
  if (options.snippets) {
    for (const auto& term : query.terms) {
      snippet_lists.push_back(find_term(term));
    }
  }
  std::vector<std::string> body_terms;
  hits.reserve(top.size());
  for (const auto& entry : top) {
    Hit hit;
    hit.doc = entry.doc;
    hit.slug = std::string(docs_[entry.doc].slug);
    hit.title = std::string(docs_[entry.doc].title);
    hit.score = entry.score;
    if (options.snippets) {
      body_terms.clear();
      for (std::size_t t = 0; t < snippet_lists.size(); ++t) {
        if (snippet_lists[t] == nullptr) continue;
        const PostingsView& postings = snippet_lists[t]->postings;
        const std::size_t p =
            lower_bound_doc(postings, 0, postings.size(), entry.doc);
        if (p < postings.size() && postings.doc_at(p) == entry.doc &&
            postings[p].tf_body > 0) {
          body_terms.push_back(query.terms[t]);
        }
      }
      hit.snippet = make_snippet(docs_[entry.doc].body, body_terms);
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

}  // namespace pdcu::search
