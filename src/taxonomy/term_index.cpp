#include "pdcu/taxonomy/term_index.hpp"

#include <algorithm>

#include "pdcu/support/strings.hpp"

namespace pdcu::tax {

void TermIndex::add_page(const PageRef& page, const PageTags& tags) {
  ++total_pages_;
  // A slug seen for the first time is on no term list yet, so only a
  // duplicate term within this page can repeat it (and it would be the
  // list's last entry); a repeated slug needs the full scan.
  const bool new_slug = slugs_.insert(page.slug).second;
  for (const auto& [key, terms] : tags) {
    if (!config_.is_taxonomy_key(key)) continue;
    auto& term_map = index_[key];
    for (const auto& term : terms) {
      Term& entry = term_map[term];
      auto& pages = entry.pages;
      const bool listed =
          new_slug ? !pages.empty() && pages.back() == page
                   : std::find(pages.begin(), pages.end(), page) !=
                         pages.end();
      if (!listed) {
        pages.push_back(page);
        entry.membership.mix(page.slug).mix(page.title);
      }
    }
  }
}

std::vector<std::string> TermIndex::terms(std::string_view taxonomy) const {
  std::vector<std::string> out;
  auto it = index_.find(taxonomy);
  if (it == index_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [term, entry] : it->second) out.push_back(term);
  return out;  // std::map iterates sorted
}

std::vector<PageRef> TermIndex::pages(std::string_view taxonomy,
                                      std::string_view term) const {
  const auto* found = find_pages(taxonomy, term);
  return found != nullptr ? *found : std::vector<PageRef>{};
}

const TermIndex::Term* TermIndex::find_term(std::string_view taxonomy,
                                            std::string_view term) const {
  auto it = index_.find(taxonomy);
  if (it == index_.end()) return nullptr;
  auto jt = it->second.find(term);
  return jt == it->second.end() ? nullptr : &jt->second;
}

const std::vector<PageRef>* TermIndex::find_pages(std::string_view taxonomy,
                                                  std::string_view term) const {
  const Term* found = find_term(taxonomy, term);
  return found != nullptr ? &found->pages : nullptr;
}

std::uint64_t TermIndex::membership_fingerprint(std::string_view taxonomy,
                                                std::string_view term) const {
  const Term* found = find_term(taxonomy, term);
  return found != nullptr ? found->membership.value() : 0;
}

std::size_t TermIndex::count(std::string_view taxonomy,
                             std::string_view term) const {
  const auto* found = find_pages(taxonomy, term);
  return found != nullptr ? found->size() : 0;
}

std::vector<PageRef> TermIndex::pages_with_any(
    std::string_view taxonomy, const std::vector<std::string>& terms) const {
  std::vector<PageRef> out;
  for (const auto& term : terms) {
    for (const auto& page : pages(taxonomy, term)) {
      if (std::find(out.begin(), out.end(), page) == out.end()) {
        out.push_back(page);
      }
    }
  }
  return out;
}

std::vector<PageRef> TermIndex::pages_with_all(
    std::string_view taxonomy, const std::vector<std::string>& terms) const {
  if (terms.empty()) return {};
  std::vector<PageRef> out = pages(taxonomy, terms.front());
  for (std::size_t i = 1; i < terms.size() && !out.empty(); ++i) {
    std::vector<PageRef> with_term = pages(taxonomy, terms[i]);
    std::vector<PageRef> kept;
    for (const auto& page : out) {
      if (std::find(with_term.begin(), with_term.end(), page) !=
          with_term.end()) {
        kept.push_back(page);
      }
    }
    out = std::move(kept);
  }
  return out;
}

namespace {

/// Case-folded with '-' and '_' unified, so user input like
/// "pd-communication" resolves against "PD_CommunicationCoordination".
std::string fold_term(std::string_view term) {
  std::string folded = strings::to_lower(term);
  for (char& c : folded) {
    if (c == '-') c = '_';
  }
  return folded;
}

}  // namespace

std::optional<std::string> TermIndex::resolve_term(
    std::string_view taxonomy, std::string_view input) const {
  auto it = index_.find(taxonomy);
  if (it == index_.end() || input.empty()) return std::nullopt;
  const std::string needle = fold_term(input);

  std::optional<std::string> prefix_match;
  bool ambiguous = false;
  for (const auto& [term, entry] : it->second) {
    const std::string folded = fold_term(term);
    if (folded == needle) return term;  // exact beats any prefix
    if (strings::starts_with(folded, needle)) {
      ambiguous = prefix_match.has_value();
      prefix_match = term;
    }
  }
  return ambiguous ? std::nullopt : prefix_match;
}

}  // namespace pdcu::tax
