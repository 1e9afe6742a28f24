#include "pdcu/search/tokenizer.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace pdcu::search {

namespace {

// Branchy ASCII classification instead of std::isalnum/std::tolower: the
// libc versions indirect through the locale per character, which at corpus
// scale is most of tokenization. Tokens are defined as ASCII-alnum runs
// regardless of locale, so this is also the more deterministic choice.
bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

char lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool is_stopword(std::string_view word) {
  // Sorted so membership is a binary search; the list is intentionally
  // small — over-aggressive stoplists hurt short pedagogical queries like
  // "how many messages".
  static constexpr std::array<std::string_view, 42> kStopwords = {
      "a",    "an",   "and",  "are",   "as",    "at",   "be",    "but",
      "by",   "can",  "each", "for",   "from",  "has",  "have",  "if",
      "in",   "into", "is",   "it",    "its",   "of",   "on",    "or",
      "such", "than", "that", "the",   "their", "then", "there", "these",
      "they", "this", "to",   "using", "was",   "we",   "were",  "which",
      "will", "with"};
  return std::binary_search(kStopwords.begin(), kStopwords.end(), word);
}

std::string stem(std::string word) {
  if (word.size() <= 3) return word;

  // Plural suffixes first, so "processes" -> "process", "copies" -> "copy".
  if (ends_with(word, "ies") && word.size() > 4) {
    word.replace(word.size() - 3, 3, "y");
  } else if (ends_with(word, "sses")) {
    word.erase(word.size() - 2);
  } else if (word.back() == 's' && !ends_with(word, "ss") &&
             !ends_with(word, "us") && !ends_with(word, "is")) {
    word.pop_back();
  }

  // Verb suffixes, only when a reasonable stem remains ("sorting" ->
  // "sort", but "ring" and "bed" survive).
  if (ends_with(word, "ing") && word.size() >= 6) {
    word.erase(word.size() - 3);
  } else if (ends_with(word, "ed") && word.size() >= 5) {
    word.erase(word.size() - 2);
  }
  // Collapse a doubled final consonant left by -ing/-ed ("passing" ->
  // "pass" keeps "ss"; "stopped" -> "stopp" -> "stop").
  if (word.size() >= 4 && word[word.size() - 1] == word[word.size() - 2] &&
      word.back() != 's' && word.back() != 'l') {
    word.pop_back();
  }
  return word;
}

bool TokenWalker::next_word() {
  while (pos_ < text_.size() && !is_word_char(text_[pos_])) ++pos_;
  if (pos_ == text_.size()) return false;
  begin_ = pos_;
  while (pos_ < text_.size() && is_word_char(text_[pos_])) ++pos_;
  end_ = pos_;
  return true;
}

bool TokenWalker::normalize() {
  word_.resize(end_ - begin_);  // keeps capacity: no allocation per token
  for (std::size_t i = 0; i < word_.size(); ++i) {
    word_[i] = lower(text_[begin_ + i]);
  }
  if (is_stopword(word_)) return false;
  word_ = stem(std::move(word_));  // moves through; shrinks in place
  return !word_.empty();
}

bool TokenWalker::next() {
  while (next_word()) {
    if (normalize()) return true;
  }
  return false;
}

std::vector<TokenSpan> tokenize_spans(std::string_view text) {
  std::vector<TokenSpan> out;
  TokenWalker walker(text);
  while (walker.next()) {
    out.push_back(
        {std::string(walker.term()), walker.begin(), walker.end()});
  }
  return out;
}

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> out;
  TokenWalker walker(text);
  while (walker.next()) out.emplace_back(walker.term());
  return out;
}

}  // namespace pdcu::search
