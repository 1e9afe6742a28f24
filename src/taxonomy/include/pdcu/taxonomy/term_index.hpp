// The term index: Hugo's taxonomy grouping. Given tagged pages, groups them
// by (taxonomy, term) so the site can render a listing page per term and the
// views can enumerate activities per learning outcome / topic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "pdcu/support/hash.hpp"
#include "pdcu/taxonomy/taxonomy.hpp"

namespace pdcu::tax {

/// A lightweight reference to a tagged page.
struct PageRef {
  std::string slug;   ///< e.g. "findsmallestcard"
  std::string title;  ///< e.g. "FindSmallestCard"

  bool operator==(const PageRef& other) const { return slug == other.slug; }
};

/// Tags carried by one page: taxonomy key -> terms.
using PageTags = std::map<std::string, std::vector<std::string>, std::less<>>;

/// Groups pages by term, per taxonomy.
class TermIndex {
 public:
  explicit TermIndex(TaxonomyConfig config) : config_(std::move(config)) {}

  /// Indexes one page. Unknown taxonomy keys in `tags` are ignored (they are
  /// ordinary front-matter fields, not taxonomies). Duplicate terms on the
  /// same page index once.
  void add_page(const PageRef& page, const PageTags& tags);

  /// All terms of a taxonomy, sorted; empty for unknown taxonomies.
  std::vector<std::string> terms(std::string_view taxonomy) const;

  /// Pages carrying a term, in insertion (curation) order.
  std::vector<PageRef> pages(std::string_view taxonomy,
                             std::string_view term) const;

  /// Pages carrying a term, without copying: a pointer into the index,
  /// valid until the next add_page; nullptr when the taxonomy or term is
  /// unknown. The search filter path resolves tens of thousands of slugs
  /// per query through this — pages() would clone every PageRef string.
  const std::vector<PageRef>* find_pages(std::string_view taxonomy,
                                         std::string_view term) const;

  /// FNV-1a over the slug and title of every page carrying a term, in
  /// order, kept as pages are added: it moves exactly when pages() would
  /// answer differently, so a term page can be keyed on it without
  /// walking the pages. 0 when the taxonomy or term is unknown.
  std::uint64_t membership_fingerprint(std::string_view taxonomy,
                                       std::string_view term) const;

  /// Number of pages carrying a term.
  std::size_t count(std::string_view taxonomy, std::string_view term) const;

  /// Pages carrying *any* term of the taxonomy (deduplicated, insertion
  /// order). Used for per-knowledge-unit activity totals.
  std::vector<PageRef> pages_with_any(
      std::string_view taxonomy,
      const std::vector<std::string>& terms) const;

  /// Pages carrying *all* the given terms (intersection query for views).
  std::vector<PageRef> pages_with_all(
      std::string_view taxonomy,
      const std::vector<std::string>& terms) const;

  /// Resolves user input to a canonical term of the taxonomy: first an
  /// exact match, then a prefix match if it is unique — both case-folded
  /// and with '-'/'_' unified. Ambiguous or unknown input resolves to
  /// nullopt. Used by the search query language (`cs2013:PD-Communication`
  /// -> "PD_CommunicationCoordination").
  std::optional<std::string> resolve_term(std::string_view taxonomy,
                                          std::string_view input) const;

  std::size_t page_count() const { return total_pages_; }

  const TaxonomyConfig& config() const { return config_; }

 private:
  struct Term {
    std::vector<PageRef> pages;  ///< insertion order
    hash::Fingerprint membership;  ///< over the pages' slugs and titles
  };
  const Term* find_term(std::string_view taxonomy,
                        std::string_view term) const;

  TaxonomyConfig config_;
  // taxonomy key -> term -> its pages.
  std::map<std::string, std::map<std::string, Term, std::less<>>,
           std::less<>>
      index_;
  std::unordered_set<std::string> slugs_;  ///< every slug added so far
  std::size_t total_pages_ = 0;
};

}  // namespace pdcu::tax
