// The versioned BENCH_*.json schema every perf-trajectory file in the
// repo speaks: one JSON object per benchmark run, opened by
//
//   {"bench_schema": 1, "bench": "<name>", "source": "<binary>", ...}
//
// The writer emits keys in insertion order so committed baselines diff
// cleanly; the parser flattens nested keys with dots ("latency_us.p50",
// "result.metrics.setup_s.value"), which is what the bench_gate
// comparator keys its tolerance rules on. The deepest documents are
// BENCH_perf_<workload>.json, which splice perfbench's output lines in
// (BenchWriter::splice/raw) and nest four objects deep; the parser
// refuses anything deeper, so no input can exhaust its stack. Both ends
// live here so the load generator, the bench binaries, and the gate can
// never drift apart on the format.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

/// Bumped when a key is renamed or changes meaning; the gate refuses to
/// compare documents across schema versions.
inline constexpr int kBenchSchemaVersion = 1;

/// The deepest object nesting the parser accepts. A perf document is the
/// deepest BENCH doc: doc → result → metrics → <metric> → value.
inline constexpr int kBenchMaxDepth = 4;

/// Ordered single-object JSON writer. Keys are emitted in call order;
/// numbers are rendered with enough precision to round-trip through the
/// parser.
class BenchWriter {
 public:
  /// Opens the document and writes the three schema fields.
  BenchWriter(std::string_view bench, std::string_view source);

  void number(std::string_view key, double value);
  void integer(std::string_view key, std::uint64_t value);
  void text(std::string_view key, std::string_view value);

  /// Writes `json`, an already rendered JSON value, under `key`.
  void raw(std::string_view key, std::string_view json);
  /// Appends the members of `object`, an already rendered JSON object, to
  /// the current scope.
  void splice(std::string_view object);

  /// Opens a nested object; subsequent fields land inside until close().
  void open(std::string_view key);
  void close();

  /// Closes any open nesting and returns the document plus a trailing
  /// newline (BENCH files are one JSON object per file, newline-terminated).
  std::string finish();

 private:
  void key(std::string_view name);

  std::string out_;
  bool first_in_scope_ = true;
  int depth_ = 0;
  bool finished_ = false;
};

/// A parsed BENCH document: leaf values keyed by their dotted path.
struct BenchDoc {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;

  bool has_number(const std::string& dotted_key) const {
    return numbers.count(dotted_key) != 0;
  }
  /// The value at `dotted_key`, or `fallback` when absent.
  double number(const std::string& dotted_key, double fallback = 0.0) const;
  std::string text(const std::string& dotted_key) const;

  int schema_version() const {
    return static_cast<int>(number("bench_schema", 0.0));
  }
  std::string bench_name() const { return text("bench"); }
};

/// Parses one BENCH-schema JSON object (objects, strings, numbers;
/// `true`, `false` and `null` are skipped, any other bare word and every
/// array is rejected — the schema has none). Nested keys flatten with
/// dots; objects nested deeper than kBenchMaxDepth are an error.
/// Leading/trailing whitespace is fine; anything else trailing the object
/// is an error.
Expected<BenchDoc> parse_bench_json(std::string_view text);

}  // namespace pdcu::loadgen
