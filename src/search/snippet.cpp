#include "pdcu/search/snippet.hpp"

#include <algorithm>
#include <cstdint>

#include "pdcu/search/tokenizer.hpp"

namespace pdcu::search {

namespace {

/// Clamps a window edge outward to the nearest whitespace so snippets never
/// cut a word in half; gives up after 24 bytes and cuts anyway.
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

}  // namespace

std::string Snippet::render(std::string_view open, std::string_view close,
                            std::string (*escape)(std::string_view)) const {
  std::string out;
  if (clipped_front) out += "...";
  std::size_t cursor = 0;
  for (const auto& [begin, end] : highlights) {
    out += escape(std::string_view(text).substr(cursor, begin - cursor));
    out += open;
    out += escape(std::string_view(text).substr(begin, end - begin));
    out += close;
    cursor = end;
  }
  out += escape(std::string_view(text).substr(cursor));
  if (clipped_back) out += "...";
  return out;
}

Snippet make_snippet(std::string_view body,
                     const std::vector<std::string>& terms,
                     std::size_t window) {
  Snippet snippet;

  // stem() keeps a word's first byte and removes at most 5 bytes ("-s",
  // "-ing" and a doubled consonant), so a raw word can only normalize to a
  // term that starts with its lowercased first byte and is 0-5 bytes
  // shorter. Every other word is dropped before lowercasing and stemming.
  const auto could_match = [&terms](std::string_view word) {
    const char first = word[0] >= 'A' && word[0] <= 'Z'
                           ? static_cast<char>(word[0] - 'A' + 'a')
                           : word[0];
    return std::any_of(terms.begin(), terms.end(),
                       [&](const std::string& term) {
                         return !term.empty() && term[0] == first &&
                                term.size() <= word.size() &&
                                word.size() <= term.size() + 5;
                       });
  };
  // A duplicate term matches as its first copy, so only first copies can
  // be covered.
  std::size_t distinct = 0;
  for (auto it = terms.begin(); it != terms.end(); ++it) {
    if (std::find(terms.begin(), it, *it) == it) ++distinct;
  }

  // The snippet window is anchored at the match whose window covers the
  // most distinct terms, the earliest one on ties. A match's window holds
  // the matches from it on that end within `window` bytes of its start.
  // Windows close in match order as the walk goes on, so one pass settles
  // them: `anchor` is the earliest still open, `in_window` counts the
  // terms of matches [anchor, end). A window covering every distinct term
  // cannot be beaten, so the walk then only goes on until the snippet's
  // own end, past which no match is highlighted.
  struct Match {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint32_t term = 0;
  };
  std::vector<Match> matches;
  std::vector<std::uint32_t> in_window(terms.size(), 0);
  std::size_t covered = 0;
  std::size_t anchor = 0;
  std::size_t best_anchor = 0;
  std::size_t best_covered = 0;
  const auto close_anchor = [&] {
    if (covered > best_covered) {
      best_covered = covered;
      best_anchor = anchor;
    }
    if (--in_window[matches[anchor].term] == 0) --covered;
    ++anchor;
  };

  // The snippet starts a little before the anchor word (at the body's
  // start without one) and runs `window` bytes, snapped to a word end.
  std::size_t begin = 0;
  std::size_t end = 0;
  const auto place = [&](const Match* at) {
    const std::size_t lead = window / 8;
    begin = at != nullptr && at->begin > lead
                ? snap_back(body, at->begin - lead)
                : 0;
    end = std::min(body.size(), begin + window);
    if (end < body.size()) end = snap_forward(body, end);
  };

  bool settled = false;
  TokenWalker walker(body);
  while (walker.next_word() && !(settled && walker.begin() >= end)) {
    if (!could_match(walker.word()) || !walker.normalize()) continue;
    const auto it = std::find(terms.begin(), terms.end(), walker.term());
    if (it == terms.end()) continue;
    const Match match{walker.begin(), walker.end(),
                      static_cast<std::uint32_t>(it - terms.begin())};
    matches.push_back(match);
    if (settled) continue;

    while (anchor + 1 < matches.size() &&
           match.end > matches[anchor].begin + window) {
      close_anchor();
    }
    if (match.end > match.begin + window) {
      ++anchor;  // longer than a window: no window holds it, not even its own
      continue;
    }
    if (in_window[match.term]++ == 0) ++covered;
    if (covered == distinct) {
      settled = true;
      place(&matches[anchor]);
    }
  }
  if (!settled) {
    while (anchor < matches.size()) close_anchor();
    place(matches.empty() ? nullptr : &matches[best_anchor]);
  }

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

}  // namespace pdcu::search
