// Seeded mutation sweep for the BENCH JSON parser. bench_gate parses the
// committed BENCH_*.json files and the standard output of perfbench runs
// through loadgen::parse_bench_json, so no byte sequence may crash it or
// leave it undecided. Well-formed documents (a BenchWriter document, a
// perf document at the schema's full nesting depth, booleans and nulls,
// escapes) are mutated by seeded byte flips, insertions of JSON-significant
// fragments, deletions, duplicated ranges and truncation. Every mutant must
// come back as a document or as an Error with a code and a message.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/support/rng.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

/// Well-formed documents the mutations start from.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> kSeeds = [] {
    loadgen::BenchWriter writer("stencil", "unit");
    writer.integer("width", 256);
    writer.number("ratio", 2.6035);
    writer.text("note", "quo\"ted\\\n\x01");
    writer.open("kernels");
    writer.number("serial_cells_per_s", 1.0e8);
    writer.close();
    return std::vector<std::string>{
        writer.finish(),
        "{\"bench_schema\":1,\"bench\":\"perf_browse\",\"seed\":1,"
        "\"revision\":\"fedabe0\",\"env\": {\"nproc\": 4, \"comparable\": "
        "true, \"flags\": null}, \"samples\": {}, \"result\": {\"correct\": "
        "false, \"attempted\": 5, \"failed\": 0, \"metrics\": "
        "{\"latency_p50_us\": {\"value\": -6.2e-3, \"unit\": \"us\"}}}}\n",
        "  {\"a\": \"\\u0041\\/\\t\", \"b\": {\"c\": {\"d\": 1E+2}}}  \n",
        "{}",
    };
  }();
  return kSeeds;
}

/// Fragments that mean something to the parser.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\u00", "true",
      "tru", "false", "null", "nul", "nan", "-", "+", ".", "e", "1e999",
      "{\"k\":", "{\"k\":{\"k\":{\"k\":", " ", "\n", std::string(1, '\0'),
      "\xff", "\xc3\xa9",
  };
  return kFragments;
}

std::string mutate(pdcu::Rng& rng, std::string text) {
  const auto at = [&] { return text.empty() ? 0 : rng.below(text.size() + 1); };
  const auto edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.below(5)) {
      case 0:  // flip one byte
        if (!text.empty()) {
          text[rng.below(text.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:  // insert a significant fragment
        text.insert(at(), fragments()[rng.below(fragments().size())]);
        break;
      case 2: {  // delete a short range
        const std::size_t from = at();
        text.erase(from, rng.below(12));
        break;
      }
      case 3: {  // duplicate a short range in place
        const std::size_t from = at();
        text.insert(from, text.substr(from, rng.below(24)));
        break;
      }
      case 4:  // truncate
        text.resize(at());
        break;
    }
  }
  return text;
}

/// A parse must decide: a document, or an Error that says what went wrong.
void expect_decided(const std::string& text) {
  const auto parsed = loadgen::parse_bench_json(text);
  if (!parsed.has_value()) {
    EXPECT_FALSE(parsed.error().code.empty()) << text;
    EXPECT_FALSE(parsed.error().message.empty()) << text;
  }
}

}  // namespace

class BenchJsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenchJsonFuzz, SeedsParseAndMutantsAlwaysDecide) {
  for (const auto& seed : seeds()) {
    ASSERT_TRUE(loadgen::parse_bench_json(seed).has_value()) << seed;
  }
  pdcu::Rng rng(GetParam());
  for (int n = 0; n < 500; ++n) {
    const std::string& seed = seeds()[rng.below(seeds().size())];
    expect_decided(mutate(rng, seed));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchJsonFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BenchJsonFuzz, PathologicalShapesTerminate) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "{\"a\":";
  const std::vector<std::string> inputs = {
      deep,
      deep + "1" + std::string(100000, '}'),
      std::string(100000, '{'),
      "{\"a\":" + std::string(100000, '['),
      "{\"a\":\"" + std::string(100000, '\\'),
      "{\"a\":" + std::string(100000, '-') + "}",
      "{" + std::string(100000, ',') + "}",
  };
  for (const auto& input : inputs) {
    EXPECT_FALSE(loadgen::parse_bench_json(input).has_value());
  }
  // A number too large for a double is still a decision.
  expect_decided("{\"a\":" + std::string(100000, '1') + "}");
}
