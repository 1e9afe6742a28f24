// String utilities shared by the markdown, taxonomy, and site layers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pdcu::strings {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);
/// Removes leading ASCII whitespace.
std::string_view trim_left(std::string_view s);
/// Removes trailing ASCII whitespace.
std::string_view trim_right(std::string_view s);

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);
/// Splits on a separator string; empty fields are preserved.
std::vector<std::string> split(std::string_view s, std::string_view sep);
/// Splits into lines, treating "\r\n" and "\n" uniformly; no trailing blank
/// line is added for a final newline.
std::vector<std::string> split_lines(std::string_view s);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

std::string to_lower(std::string_view s);
std::string to_upper(std::string_view s);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Repeats a string n times.
std::string repeat(std::string_view s, std::size_t n);

/// Pads with spaces on the right (left-aligns) to at least `width` columns.
std::string pad_right(std::string_view s, std::size_t width);
/// Pads with spaces on the left (right-aligns) to at least `width` columns.
std::string pad_left(std::string_view s, std::size_t width);

/// Greedy word-wrap to `width` columns; words longer than the width are
/// emitted on their own line unbroken.
std::vector<std::string> word_wrap(std::string_view text, std::size_t width);

/// Escapes &, <, >, and " for HTML attribute/text contexts.
std::string html_escape(std::string_view s);

/// Appends the escaped form of `s` to `out` without intermediate
/// allocations — the render hot path escapes into one reserved buffer.
void html_escape_append(std::string_view s, std::string& out);

/// Appends `s` escaped for the inside of a JSON string literal: `"`, `\`,
/// newline, carriage return and tab as two-character escapes, every other
/// byte below 0x20 as a lowercase \u00xx escape, all else verbatim.
void json_escape_append(std::string_view s, std::string& out);

/// Strict full-string unsigned parse: ASCII digits only — no sign, no
/// leading/trailing junk, no overflow. Rejects what std::strtoul silently
/// accepts: "10abc" (partial), "-1" (wraps), " 7" (whitespace), "".
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Formats a ratio as a percentage with two decimals, e.g. 0.8333 -> "83.33%".
/// This matches the formatting used in the paper's Tables I and II.
std::string percent(double numerator, double denominator);

}  // namespace pdcu::strings
