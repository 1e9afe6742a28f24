#include "pdcu/support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace pdcu::strings {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim_left(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

std::string_view trim_right(std::string_view s) {
  std::size_t n = s.size();
  while (n > 0 && is_space(s[n - 1])) --n;
  return s.substr(0, n);
}

std::string_view trim(std::string_view s) { return trim_right(trim_left(s)); }

std::vector<std::string> split(std::string_view s, char sep) {
  return split(s, std::string_view(&sep, 1));
}

std::vector<std::string> split(std::string_view s, std::string_view sep) {
  std::vector<std::string> out;
  if (sep.empty()) {
    out.emplace_back(s);
    return out;
  }
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      std::size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.emplace_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) {
    std::string_view last = s.substr(start);
    if (!last.empty() && last.back() == '\r') last.remove_suffix(1);
    out.emplace_back(last);
  }
  return out;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out.append(s);
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out;
  if (s.size() < width) out.append(width - s.size(), ' ');
  out.append(s);
  return out;
}

std::vector<std::string> word_wrap(std::string_view text, std::size_t width) {
  std::vector<std::string> lines;
  std::string current;
  for (std::string_view word : split(text, ' ')) {
    if (word.empty()) continue;
    if (current.empty()) {
      current = std::string(word);
    } else if (current.size() + 1 + word.size() <= width) {
      current += ' ';
      current += word;
    } else {
      lines.push_back(current);
      current = std::string(word);
    }
  }
  if (!current.empty()) lines.push_back(current);
  if (lines.empty()) lines.emplace_back();
  return lines;
}

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  html_escape_append(s, out);
  return out;
}

void html_escape_append(std::string_view s, std::string& out) {
  // Copy clean runs in bulk; most text contains no escapable characters.
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '&' && c != '<' && c != '>' && c != '"') continue;
    out.append(s, run_start, i - run_start);
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += "&quot;"; break;
    }
    run_start = i + 1;
  }
  out.append(s, run_start, s.size() - run_start);
}

void json_escape_append(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run_start, i - run_start);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
    run_start = i + 1;
  }
  out.append(s, run_start, s.size() - run_start);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return value;
}

std::string percent(double numerator, double denominator) {
  double pct = denominator == 0.0 ? 0.0 : 100.0 * numerator / denominator;
  // Round half away from zero at two decimals. The paper's tables mix
  // rounding (66.67%, 26.32%) with truncation (54.54%, 16.66%); we use
  // rounding uniformly and record the two truncated cells in EXPERIMENTS.md.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", pct);
  return buf;
}

}  // namespace pdcu::strings
