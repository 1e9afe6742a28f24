// The BENCH schema's writer/parser pair. Every committed BENCH_*.json
// file and every bench_gate comparison flows through these two, so the
// round-trip property (write → parse → same values) is load-bearing.
#include "pdcu/loadgen/bench_json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace loadgen = pdcu::loadgen;

namespace {

TEST(BenchWriter, OpensWithTheSchemaFields) {
  loadgen::BenchWriter writer("serve", "unit");
  const std::string json = writer.finish();
  EXPECT_EQ(json.rfind("{\"bench_schema\":1,\"bench\":\"serve\","
                       "\"source\":\"unit\"",
                       0),
            0u);
  EXPECT_EQ(json.back(), '\n');
}

TEST(BenchWriter, RoundTripsThroughTheParser) {
  loadgen::BenchWriter writer("serve", "unit");
  writer.number("achieved_rate", 150.47337977294276);
  writer.integer("scheduled", 300);
  writer.text("note", "quo\"ted\n");
  writer.open("latency_us");
  writer.integer("p50", 233);
  writer.number("mean", 1.1);
  writer.close();
  writer.number("after_nested", 2.5);

  auto parsed = loadgen::parse_bench_json(writer.finish());
  ASSERT_TRUE(parsed.has_value());
  const auto& doc = parsed.value();
  EXPECT_EQ(doc.schema_version(), loadgen::kBenchSchemaVersion);
  EXPECT_EQ(doc.bench_name(), "serve");
  EXPECT_EQ(doc.text("source"), "unit");
  EXPECT_DOUBLE_EQ(doc.number("achieved_rate"), 150.47337977294276);
  EXPECT_DOUBLE_EQ(doc.number("scheduled"), 300.0);
  EXPECT_EQ(doc.text("note"), "quo\"ted\n");
  EXPECT_TRUE(doc.has_number("latency_us.p50"));
  EXPECT_DOUBLE_EQ(doc.number("latency_us.p50"), 233.0);
  EXPECT_DOUBLE_EQ(doc.number("latency_us.mean"), 1.1);
  EXPECT_DOUBLE_EQ(doc.number("after_nested"), 2.5);
}

TEST(BenchWriter, FinishIsIdempotentAndClosesNesting) {
  loadgen::BenchWriter writer("x", "y");
  writer.open("a");
  writer.integer("b", 1);
  // No close() — finish must balance the braces itself.
  const std::string once = writer.finish();
  EXPECT_EQ(once, writer.finish());
  ASSERT_TRUE(loadgen::parse_bench_json(once).has_value());
}

TEST(BenchDoc, FallbacksForMissingKeys) {
  auto parsed = loadgen::parse_bench_json("{\"a\":1}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed.value().number("missing", -7.0), -7.0);
  EXPECT_EQ(parsed.value().text("missing"), "");
  EXPECT_FALSE(parsed.value().has_number("missing"));
}

TEST(ParseBenchJson, AcceptsWhitespaceAndScientificNumbers) {
  auto parsed = loadgen::parse_bench_json(
      "  {\"a\": -1.5e3, \"b\": {\"c\": 0.25}, \"flag\": true,"
      " \"nothing\": null}\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed.value().number("a"), -1500.0);
  EXPECT_DOUBLE_EQ(parsed.value().number("b.c"), 0.25);
  // Booleans and nulls are skipped, not stored.
  EXPECT_FALSE(parsed.value().has_number("flag"));
}

TEST(ParseBenchJson, RejectsMalformedInput) {
  EXPECT_FALSE(loadgen::parse_bench_json("").has_value());
  EXPECT_FALSE(loadgen::parse_bench_json("{\"a\":[1,2]}").has_value());
  EXPECT_FALSE(loadgen::parse_bench_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(loadgen::parse_bench_json("{\"a\":}").has_value());
  EXPECT_FALSE(loadgen::parse_bench_json("{\"a\" 1}").has_value());
  EXPECT_FALSE(loadgen::parse_bench_json("{\"unterminated").has_value());
}

TEST(ParseBenchJson, AcceptsFourLevelsOfNestingAndNoMore) {
  // A perf document's deepest key: doc → result → metrics → <metric>.
  const auto four = loadgen::parse_bench_json(
      "{\"result\":{\"metrics\":{\"setup_s\":{\"value\":0.5}}}}");
  ASSERT_TRUE(four.has_value());
  EXPECT_DOUBLE_EQ(four.value().number("result.metrics.setup_s.value"), 0.5);
  EXPECT_FALSE(loadgen::parse_bench_json(
                   "{\"a\":{\"b\":{\"c\":{\"d\":{\"e\":1}}}}}")
                   .has_value());
}

TEST(ParseBenchJson, AcceptsOnlyTheThreeLiterals) {
  EXPECT_TRUE(loadgen::parse_bench_json(
                  "{\"a\":true,\"b\":false,\"c\":null}")
                  .has_value());
  for (const char* literal : {"tru", "nul", "fals", "nothing", "truex",
                              "nan", "inf", "yes"}) {
    EXPECT_FALSE(loadgen::parse_bench_json(std::string("{\"a\":") +
                                           literal + "}")
                     .has_value())
        << literal;
  }
}

}  // namespace
