// Oracle suite for make_snippet. The library version drops words that cannot
// normalize to a query term before stemming them, and stops walking the
// body once the best window is settled. The oracle below is the plain
// full-scan version: it normalizes every word of the body, then tries every
// match as an anchor. On seeded bodies and queries both must return the
// identical Snippet: text, highlight spans and clip flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/search/snippet.hpp"
#include "pdcu/search/tokenizer.hpp"
#include "pdcu/support/rng.hpp"

namespace search = pdcu::search;

namespace {

std::size_t snap_back(std::string_view body, std::size_t pos) {
  for (std::size_t i = 0; i < 24 && pos > 0; ++i, --pos) {
    if (body[pos - 1] == ' ' || body[pos - 1] == '\n') return pos;
  }
  return pos;
}

std::size_t snap_forward(std::string_view body, std::size_t pos) {
  for (std::size_t i = 0; i < 24 && pos < body.size(); ++i, ++pos) {
    if (body[pos] == ' ' || body[pos] == '\n') return pos;
  }
  return pos;
}

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// Every surviving token of `body` with its raw byte span, normalized word
/// by word through the public is_stopword/stem.
std::vector<search::TokenSpan> all_tokens(std::string_view body) {
  std::vector<search::TokenSpan> tokens;
  std::size_t pos = 0;
  while (pos < body.size()) {
    if (!is_alnum(body[pos])) {
      ++pos;
      continue;
    }
    const std::size_t begin = pos;
    std::string word;
    for (; pos < body.size() && is_alnum(body[pos]); ++pos) {
      const char c = body[pos];
      word.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                          : c);
    }
    if (search::is_stopword(word)) continue;
    tokens.push_back({search::stem(std::move(word)), begin, pos});
  }
  return tokens;
}

search::Snippet oracle_snippet(std::string_view body,
                               const std::vector<std::string>& terms,
                               std::size_t window) {
  search::Snippet snippet;
  struct Match {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint32_t term = 0;
  };
  std::vector<Match> matches;
  for (const auto& token : all_tokens(body)) {
    const auto it = std::find(terms.begin(), terms.end(), token.term);
    if (it == terms.end()) continue;
    matches.push_back({token.begin, token.end,
                       static_cast<std::uint32_t>(it - terms.begin())});
  }

  std::size_t begin = 0;
  std::size_t end = std::min(body.size(), window);
  if (!matches.empty()) {
    std::size_t best_anchor = 0;
    std::size_t best_covered = 0;
    std::vector<char> covered(terms.size(), 0);
    for (std::size_t anchor = 0; anchor < matches.size(); ++anchor) {
      const std::size_t window_end = matches[anchor].begin + window;
      std::fill(covered.begin(), covered.end(), 0);
      std::size_t covered_count = 0;
      for (const Match& m : matches) {
        if (m.begin < matches[anchor].begin) continue;
        if (m.end > window_end) break;
        if (!covered[m.term]) {
          covered[m.term] = 1;
          ++covered_count;
        }
      }
      if (covered_count > best_covered) {
        best_covered = covered_count;
        best_anchor = anchor;
      }
    }
    const std::size_t lead = window / 8;
    const std::size_t anchor_begin = matches[best_anchor].begin;
    begin = anchor_begin > lead ? snap_back(body, anchor_begin - lead) : 0;
    end = std::min(body.size(), begin + window);
  }
  if (end < body.size()) end = snap_forward(body, end);

  snippet.text = std::string(body.substr(begin, end - begin));
  snippet.clipped_front = begin > 0;
  snippet.clipped_back = end < body.size();
  for (const Match& m : matches) {
    if (m.begin >= begin && m.end <= end) {
      snippet.highlights.emplace_back(m.begin - begin, m.end - begin);
    }
  }
  return snippet;
}

void expect_same(std::string_view body, const std::vector<std::string>& terms,
                 std::size_t window) {
  const search::Snippet want = oracle_snippet(body, terms, window);
  const search::Snippet got = search::make_snippet(body, terms, window);
  std::string label = "window=" + std::to_string(window) + " terms=";
  for (const auto& term : terms) label += "[" + term + "]";
  label += " body=" + std::string(body);
  EXPECT_EQ(want.text, got.text) << label;
  EXPECT_EQ(want.highlights, got.highlights) << label;
  EXPECT_EQ(want.clipped_front, got.clipped_front) << label;
  EXPECT_EQ(want.clipped_back, got.clipped_back) << label;
}

/// Body words: query-term roots and their inflections, words that share a
/// root's first byte and length range without normalizing to it, upper
/// case, digits, stopword-shaped words, and a long word.
const std::vector<std::string>& words() {
  static const std::vector<std::string> kWords = {
      "stoppings", "stopping", "stopped",  "stop",     "stops",
      "copies",    "copy",     "copying",  "processes", "process",
      "passing",   "pass",     "passes",   "PASSING",  "Sorting",
      "SORT",      "sort",     "sorted",   "sorts",    "merge",
      "merging",   "Merges",   "4096",     "x86",      "2d",
      "the",       "The",      "using",    "USING",    "with",
      "card",      "cards",    "carding",  "students", "student",
      "message",   "messages", "pipelines", "pipe",    "s",
      "sortingsortingsorting", "processor", "proceed", "cop",
      "stoppage",  "pas",
  };
  return kWords;
}

const std::vector<std::string>& separators() {
  static const std::vector<std::string> kSeparators = {
      " ", " ", " ", "  ", "\n", ", ", ". ", "-", "(", ") ", "'", " & ",
  };
  return kSeparators;
}

/// Normalized query terms plus ones that never match anything.
const std::vector<std::string>& query_terms() {
  static const std::vector<std::string> kTerms = {
      "stop", "copy", "process", "pass", "sort", "merge", "4096", "x86",
      "card", "student", "message", "pipeline", "zzz", "Sort", "the", "",
      "s",    "2d",   "sortingsortingsort",
  };
  return kTerms;
}

std::string random_body(pdcu::Rng& rng, std::size_t words_count) {
  std::string body;
  for (std::size_t i = 0; i < words_count; ++i) {
    if (i > 0) body += separators()[rng.below(separators().size())];
    body += words()[rng.below(words().size())];
  }
  return body;
}

std::vector<std::string> random_terms(pdcu::Rng& rng) {
  std::vector<std::string> terms;
  const auto count = rng.below(5);
  for (std::uint64_t i = 0; i < count; ++i) {
    terms.push_back(query_terms()[rng.below(query_terms().size())]);
  }
  if (!terms.empty() && rng.chance(0.2)) terms.push_back(terms.front());
  return terms;
}

}  // namespace

class SnippetOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnippetOracle, SeededBodiesMatchTheFullScan) {
  pdcu::Rng rng(GetParam());
  for (int round = 0; round < 400; ++round) {
    const std::string body = random_body(rng, rng.below(120));
    const auto terms = random_terms(rng);
    for (const std::size_t window : {8u, 24u, 60u, 160u, 400u}) {
      expect_same(body, terms, window);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnippetOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SnippetOracle, EdgeTokensNormalizeToTheirTerms) {
  const std::string body =
      "Stoppings copies processes passing. The USING 4096 stopped x86";
  for (const auto& terms : std::vector<std::vector<std::string>>{
           {"stop"}, {"copy"}, {"process"}, {"pass"}, {"4096"},
           {"stop", "x86"}, {"the"}, {"using"}, {"stop", "stop", "copy"}}) {
    for (const std::size_t window : {10u, 30u, 160u}) {
      expect_same(body, terms, window);
    }
  }
  // "stoppings" is the longest strip stem() makes: 9 bytes down to 4.
  const auto snippet = search::make_snippet("stoppings", {"stop"});
  ASSERT_EQ(snippet.highlights.size(), 1u);
  EXPECT_EQ(snippet.highlights[0], std::make_pair(std::size_t{0},
                                                  std::size_t{9}));
}

TEST(SnippetOracle, NoMatchAndShortBodies) {
  for (const std::string body :
       {"", "x", "sort", "a short body", "no match in here at all"}) {
    for (const auto& terms : std::vector<std::vector<std::string>>{
             {}, {"zzz"}, {"sort"}, {"sort", "body"}}) {
      expect_same(body, terms, 160);
      expect_same(body, terms, 4);
    }
  }
}

TEST(SnippetOracle, MatchOnlyAtTheEndOfALongBody) {
  std::string body;
  for (int i = 0; i < 200; ++i) body += "filler words here ";
  body += "merging sorted";
  for (const std::size_t window : {16u, 80u, 160u}) {
    expect_same(body, {"merge"}, window);
    expect_same(body, {"merge", "sort"}, window);
    expect_same(body, {"sort", "merge", "zzz"}, window);
  }
}

TEST(SnippetOracle, SettledWindowStillHighlightsToTheSnippetEnd) {
  // Both terms are covered early; later matches inside the snapped end
  // must still be highlighted, later ones past it must not be.
  std::string body = "sort merge sort merge sorting merged ";
  for (int i = 0; i < 40; ++i) body += "sort merge ";
  for (const std::size_t window : {12u, 20u, 33u, 50u, 160u}) {
    expect_same(body, {"sort", "merge"}, window);
  }
}

TEST(SnippetOracle, BodyPresentTermsGiveTheSameSnippet) {
  // SearchIndex::search passes make_snippet only the query terms the hit's
  // body holds; the terms it drops never match there, so the snippet must
  // not change.
  pdcu::Rng rng(99);
  for (int round = 0; round < 1500; ++round) {
    const std::string body = random_body(rng, rng.below(120));
    const auto terms = random_terms(rng);
    const auto tokens = search::tokenize(body);
    std::vector<std::string> present;
    for (const auto& term : terms) {
      if (std::find(tokens.begin(), tokens.end(), term) != tokens.end()) {
        present.push_back(term);
      }
    }
    for (const std::size_t window : {8u, 24u, 60u, 160u, 400u}) {
      const search::Snippet all = search::make_snippet(body, terms, window);
      const search::Snippet some = search::make_snippet(body, present, window);
      EXPECT_EQ(all.text, some.text) << body;
      EXPECT_EQ(all.highlights, some.highlights) << body;
      EXPECT_EQ(all.clipped_front, some.clipped_front) << body;
      EXPECT_EQ(all.clipped_back, some.clipped_back) << body;
      expect_same(body, present, window);
    }
  }
}

TEST(SnippetOracle, InflectedFormsStillHighlight) {
  // could_match compares every byte of a term but its last with the raw
  // word's lowercased prefix; each inflection stem() undoes must pass it.
  struct Case {
    std::string word;  ///< as it stands in the body
    std::string term;  ///< the normalized query term
  };
  for (const Case& c : std::vector<Case>{
           {"cards", "card"},          // plural -s
           {"processes", "process"},   // plural -es
           {"passes", "pass"},         // plural -es after a double s
           {"copies", "copy"},         // plural -ies
           {"sorting", "sort"},        // -ing
           {"sorted", "sort"},         // -ed
           {"stopped", "stop"},        // -ed after a doubled consonant
           {"stopping", "stop"},       // -ing after a doubled consonant
           {"Students", "student"},    // capitalized plural
           {"SORTING", "sort"},        // upper case -ing
           {"Copies", "copy"},         // capitalized -ies
       }) {
    ASSERT_EQ(search::tokenize(c.word), std::vector<std::string>{c.term})
        << c.word;
    const std::string body = "The class lines up; " + c.word + " follow.";
    const std::size_t at = body.find(c.word);
    const auto snippet = search::make_snippet(body, {c.term});
    ASSERT_EQ(snippet.highlights.size(), 1u) << c.word;
    EXPECT_EQ(snippet.highlights[0], std::make_pair(at, at + c.word.size()))
        << c.word;
    expect_same(body, {c.term}, 160);
    expect_same(body, {c.term}, 12);
  }
}
