#include "pdcu/loadgen/bench_json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pdcu/support/strings.hpp"

namespace pdcu::loadgen {

namespace {

/// Shortest representation that round-trips: integers render bare, other
/// values with up to 17 significant digits trimmed of trailing zeros.
void append_number(std::string& out, double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    out += buffer;
    return;
  }
  // Shortest representation that survives a parse round trip: most
  // human-entered values ("1.1") are exact at 15 digits; fall back to 17
  // only when they are not.
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.15g", value);
  if (std::strtod(buffer, nullptr) != value) {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  out += buffer;
}

}  // namespace

BenchWriter::BenchWriter(std::string_view bench, std::string_view source) {
  out_ = "{";
  integer("bench_schema", static_cast<std::uint64_t>(kBenchSchemaVersion));
  text("bench", bench);
  text("source", source);
}

void BenchWriter::key(std::string_view name) {
  if (!first_in_scope_) out_ += ',';
  first_in_scope_ = false;
  out_ += '"';
  strings::json_escape_append(name, out_);
  out_ += "\":";
}

void BenchWriter::number(std::string_view name, double value) {
  key(name);
  append_number(out_, value);
}

void BenchWriter::integer(std::string_view name, std::uint64_t value) {
  key(name);
  out_ += std::to_string(value);
}

void BenchWriter::text(std::string_view name, std::string_view value) {
  key(name);
  out_ += '"';
  strings::json_escape_append(value, out_);
  out_ += '"';
}

void BenchWriter::raw(std::string_view name, std::string_view json) {
  key(name);
  out_ += json;
}

void BenchWriter::splice(std::string_view object) {
  // Everything between the object's outer braces.
  object = strings::trim(object);
  if (object.size() < 2) return;
  const std::string_view members =
      strings::trim(object.substr(1, object.size() - 2));
  if (members.empty()) return;
  if (!first_in_scope_) out_ += ',';
  first_in_scope_ = false;
  out_ += members;
}

void BenchWriter::open(std::string_view name) {
  key(name);
  out_ += '{';
  first_in_scope_ = true;
  ++depth_;
}

void BenchWriter::close() {
  if (depth_ == 0) return;
  out_ += '}';
  first_in_scope_ = false;
  --depth_;
}

std::string BenchWriter::finish() {
  if (!finished_) {
    while (depth_ > 0) close();
    out_ += "}\n";
    finished_ = true;
  }
  return out_;
}

double BenchDoc::number(const std::string& dotted_key, double fallback) const {
  const auto it = numbers.find(dotted_key);
  return it == numbers.end() ? fallback : it->second;
}

std::string BenchDoc::text(const std::string& dotted_key) const {
  const auto it = strings.find(dotted_key);
  return it == strings.end() ? std::string() : it->second;
}

namespace {

/// Tiny recursive-descent parser over the BENCH subset. `at` advances
/// through `text`; errors carry the byte offset for debuggability.
class Parser {
 public:
  Parser(std::string_view text, BenchDoc& doc) : text_(text), doc_(doc) {}

  Status run() {
    skip_ws();
    if (auto status = parse_object("", 1); !status) return status;
    skip_ws();
    if (at_ != text_.size()) {
      return fail("trailing content after the object");
    }
    return Status::ok();
  }

 private:
  Status fail(const std::string& what) const {
    return Error::make("bench_json.parse",
                       what + " at byte " + std::to_string(at_));
  }

  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  bool consume(char c) {
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  Status parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (at_ < text_.size()) {
      const char c = text_[at_++];
      if (c == '"') return Status::ok();
      if (c == '\\') {
        if (at_ >= text_.size()) break;
        const char esc = text_[at_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (at_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[at_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // The schema only ever escapes control characters.
            out += static_cast<char>(code & 0x7f);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  Status parse_value(const std::string& dotted_key, int depth) {
    skip_ws();
    if (at_ >= text_.size()) return fail("expected a value");
    const char c = text_[at_];
    if (c == '{') return parse_object(dotted_key, depth + 1);
    if (c == '"') {
      std::string value;
      if (auto status = parse_string(value); !status) return status;
      doc_.strings[dotted_key] = std::move(value);
      return Status::ok();
    }
    if (c == '[') return fail("arrays are not part of the BENCH schema");
    for (const std::string_view literal : {"true", "false", "null"}) {
      // Booleans/null: skip the token, store nothing.
      if (text_.substr(at_, literal.size()) == literal) {
        at_ += literal.size();
        return Status::ok();
      }
    }
    // Number.
    const std::size_t start = at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.' ||
            text_[at_] == 'e' || text_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, at_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    doc_.numbers[dotted_key] = value;
    return Status::ok();
  }

  /// `depth` counts this object: the top-level object is depth 1.
  Status parse_object(const std::string& prefix, int depth) {
    if (!consume('{')) return fail("expected '{'");
    if (depth > kBenchMaxDepth) return fail("objects nested too deeply");
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      std::string name;
      if (auto status = parse_string(name); !status) return status;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      const std::string dotted =
          prefix.empty() ? name : prefix + "." + name;
      if (auto status = parse_value(dotted, depth); !status) return status;
      skip_ws();
      if (consume('}')) return Status::ok();
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  BenchDoc& doc_;
  std::size_t at_ = 0;
};

}  // namespace

Expected<BenchDoc> parse_bench_json(std::string_view text) {
  BenchDoc doc;
  Parser parser(text, doc);
  if (auto status = parser.run(); !status) return status.error();
  return doc;
}

}  // namespace pdcu::loadgen
