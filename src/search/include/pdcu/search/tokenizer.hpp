// Text normalization for the search index and queries. Both sides of the
// match (indexing and querying) must tokenize identically, so this is the
// single definition: ASCII-alnum runs, lowercased, stopwords dropped, and a
// light suffix-stripping stem (plurals, -ing, -ed) so "sorting networks"
// matches "sorted network".
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pdcu::search {

/// One token with its byte span in the original text (for highlighting).
/// `term` is the normalized form; `begin`/`end` delimit the raw word.
struct TokenSpan {
  std::string term;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// True for words too common to be worth indexing ("the", "and", ...).
/// Expects an already-lowercased word.
bool is_stopword(std::string_view word);

/// Light stemming of an already-lowercased word: -ies/-sses/-s plurals,
/// then -ing/-ed verb suffixes when enough stem remains. Deliberately
/// weaker than Porter: it never rewrites short words, so taxonomy codes
/// like "pd" and "c" survive untouched.
std::string stem(std::string word);

/// Normalized index terms of `text`, in order of appearance. Stopwords and
/// empty tokens are dropped; duplicates are preserved (term frequency).
std::vector<std::string> tokenize(std::string_view text);

/// Allocation-free tokenization: next() scans the following token into an
/// internal reused buffer. Produces exactly the token sequence of
/// tokenize_spans() without a heap allocation per token, which is what the
/// indexing and snippet hot paths want.
///
///   TokenWalker walker(text);
///   while (walker.next()) use(walker.term(), walker.begin(), walker.end());
class TokenWalker {
 public:
  explicit TokenWalker(std::string_view text) : text_(text) {}

  /// Advances to the next surviving token; false at end of text.
  bool next();

  /// next() in two steps, for callers that can reject a word from its raw
  /// bytes: next_word() advances to the next ASCII-alnum run (false at end
  /// of text), and normalize() lowercases and stems it into term(), false
  /// when the word is a stopword and yields no token.
  bool next_word();
  bool normalize();

  /// The raw bytes of the current word.
  std::string_view word() const { return text_.substr(begin_, end_ - begin_); }
  /// The normalized term; a view into an internal buffer that the next
  /// normalize() call overwrites.
  std::string_view term() const { return word_; }
  std::size_t begin() const { return begin_; }
  std::size_t end() const { return end_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string word_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Like tokenize(), but keeps the byte span of every surviving token so
/// snippets can highlight the raw text.
std::vector<TokenSpan> tokenize_spans(std::string_view text);

}  // namespace pdcu::search
