// The bench_gate comparator and structural checks: multiplicative
// tolerance in the worse direction only, hard-fail on fresh failures,
// schema/name sanity, the BENCH_perf_<workload>.json schema and its
// assembly from run.py output, and the BENCH_search_scale.json schema.
#include "pdcu/loadgen/gate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

constexpr const char* kP50 = "result.metrics.latency_p50_us.value";
constexpr const char* kThroughput = "result.metrics.throughput_per_s.value";
constexpr const char* kP99 = "layers.metrics.client.latency_p99_us.value";

/// A well-formed BENCH_perf_<workload>.json: every gated key at 100.
loadgen::BenchDoc perf_doc(const std::string& workload) {
  loadgen::BenchDoc doc;
  doc.numbers["bench_schema"] = loadgen::kBenchSchemaVersion;
  doc.strings["bench"] = "perf_" + workload;
  doc.strings["source"] = "perfbench";
  doc.numbers["seed"] = 1;
  doc.numbers["seconds"] = 25;
  doc.strings["revision"] = "fedabe0c64cd4122b54f88cfdf81750b47b85754";
  doc.numbers["result.attempted"] = 1000;
  doc.numbers["result.failed"] = 0;
  doc.numbers["layers.failed"] = 0;
  for (const auto& rule : loadgen::perf_gate_rules(workload)) {
    doc.numbers[rule.key] = 100.0;
  }
  return doc;
}

/// A perf_browse document with its three gated figures set.
loadgen::BenchDoc browse_doc(double p50, double p99, double throughput,
                             double failed = 0.0) {
  auto doc = perf_doc("browse");
  doc.numbers[kP50] = p50;
  doc.numbers[kP99] = p99;
  doc.numbers[kThroughput] = throughput;
  doc.numbers["result.failed"] = failed;
  return doc;
}

std::vector<loadgen::GateRule> browse_rules() {
  return loadgen::perf_gate_rules("browse");
}

TEST(Gate, IdenticalDocumentsPass) {
  const auto doc = browse_doc(30, 160, 60000);
  EXPECT_TRUE(loadgen::gate_compare(doc, doc, browse_rules()).empty());
}

TEST(Gate, DriftWithinTolerancePasses) {
  const auto baseline = browse_doc(30, 160, 60000);
  const auto fresh = browse_doc(120, 700, 16000);  // < 5x worse everywhere
  EXPECT_TRUE(
      loadgen::gate_compare(baseline, fresh, browse_rules()).empty());
}

TEST(Gate, LatencyCliffFails) {
  const auto baseline = browse_doc(30, 160, 60000);
  const auto fresh = browse_doc(30, 160 * 6, 60000);
  const auto violations =
      loadgen::gate_compare(baseline, fresh, browse_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("client.latency_p99_us"), std::string::npos);
}

TEST(Gate, ThroughputCliffFailsInTheOtherDirection) {
  const auto baseline = browse_doc(30, 160, 60000);
  const auto fresh = browse_doc(30, 160, 60000 / 6.0);
  const auto violations =
      loadgen::gate_compare(baseline, fresh, browse_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("throughput_per_s"), std::string::npos);
}

TEST(Gate, StencilKernelThroughputTreatsLowerAsWorse) {
  const auto baseline = perf_doc("stencil_lab");
  auto fresh = perf_doc("stencil_lab");
  // > 5x slower
  fresh.numbers["layers.metrics.stencil.autovec_cells_per_s.value"] =
      100.0 / 6.0;
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::perf_gate_rules("stencil_lab"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("stencil.autovec_cells_per_s"),
            std::string::npos);
}

TEST(Gate, ImprovementsNeverFail) {
  const auto baseline = browse_doc(30, 160, 60000);
  // 100x faster and 100x more throughput: great, not a violation.
  const auto fresh = browse_doc(0.3, 1.6, 6000000);
  EXPECT_TRUE(
      loadgen::gate_compare(baseline, fresh, browse_rules()).empty());
}

TEST(Gate, FreshErrorsFailEvenWhenFast) {
  const auto baseline = browse_doc(30, 160, 60000);
  const auto fresh = browse_doc(15, 80, 60000, /*failed=*/3);
  const auto violations =
      loadgen::gate_compare(baseline, fresh, browse_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("result.failed"), std::string::npos);

  // A wrong answer in the traced run counts the same.
  auto traced_failure = browse_doc(30, 160, 60000);
  traced_failure.numbers["layers.failed"] = 1;
  EXPECT_EQ(
      loadgen::gate_compare(baseline, traced_failure, browse_rules()).size(),
      1u);
}

TEST(Gate, MissingRequiredKeyFails) {
  const auto baseline = browse_doc(30, 160, 60000);
  auto fresh = browse_doc(30, 160, 60000);
  fresh.numbers.erase(kP99);
  const auto violations =
      loadgen::gate_compare(baseline, fresh, browse_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("client.latency_p99_us"), std::string::npos);
}

TEST(Gate, SchemaAndNameMismatchesShortCircuit) {
  const auto baseline = browse_doc(30, 160, 60000);

  auto wrong_schema = browse_doc(30, 160, 60000);
  wrong_schema.numbers["bench_schema"] = 99;
  EXPECT_EQ(
      loadgen::gate_compare(baseline, wrong_schema, browse_rules()).size(),
      1u);

  auto wrong_name = browse_doc(30, 160, 60000);
  wrong_name.strings["bench"] = "perf_search_corpus";
  const auto violations =
      loadgen::gate_compare(baseline, wrong_name, browse_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("mismatch"), std::string::npos);
}

TEST(Gate, TightToleranceCatchesSmallDrift) {
  const auto baseline = browse_doc(30, 160, 60000);
  const auto fresh = browse_doc(30, 200, 60000);  // 1.25x worse p99
  loadgen::GateOptions tight;
  tight.tolerance = 1.2;
  EXPECT_EQ(
      loadgen::gate_compare(baseline, fresh, browse_rules(), tight).size(),
      1u);
}

TEST(Gate, ZeroBaselineIsSkippedNotDividedBy) {
  auto baseline = browse_doc(0, 160, 60000);  // p50 of 0 — nothing to ratio
  const auto fresh = browse_doc(5000, 160, 60000);
  EXPECT_TRUE(
      loadgen::gate_compare(baseline, fresh, browse_rules()).empty());
}

TEST(PerfSchema, WellFormedDocumentsPass) {
  for (const char* workload :
       {"browse", "search_corpus", "author_reload", "stencil_lab"}) {
    const auto violations =
        loadgen::perf_schema_violations(perf_doc(workload), workload);
    EXPECT_TRUE(violations.empty())
        << workload << ": " << (violations.empty() ? "" : violations[0]);
  }
}

TEST(PerfSchema, EachCommittedFaultIsOneViolationNamingIt) {
  using Doc = loadgen::BenchDoc;
  struct Fault {
    const char* named;  ///< must appear in the violation
    void (*apply)(Doc&);
  };
  const Fault faults[] = {
      {"result.failed", [](Doc& d) { d.numbers["result.failed"] = 2; }},
      {"layers.failed", [](Doc& d) { d.numbers["layers.failed"] = 1; }},
      {"result.attempted", [](Doc& d) { d.numbers["result.attempted"] = 0; }},
      {"search.rank_us.p99",
       [](Doc& d) {
         d.numbers.erase("layers.metrics.search.rank_us.p99.value");
       }},
      {"revision", [](Doc& d) { d.strings.erase("revision"); }},
      {"seconds", [](Doc& d) { d.numbers.erase("seconds"); }},
      {"perf_search_corpus",
       [](Doc& d) { d.strings["bench"] = "perf_browse"; }},
  };
  for (const Fault& fault : faults) {
    auto doc = perf_doc("search_corpus");
    fault.apply(doc);
    const auto violations =
        loadgen::perf_schema_violations(doc, "search_corpus");
    ASSERT_EQ(violations.size(), 1u) << fault.named;
    EXPECT_NE(violations[0].find(fault.named), std::string::npos)
        << violations[0];
  }
}

/// Standard output of `perfbench/run.py --workload stencil_lab --seed 1
/// --seconds 4`, untraced and traced, shortened to a few metrics.
constexpr const char* kUntracedStdout =
    "{\"env\": {\"compiler\": \"GNU 12.2.0\", \"build_type\": "
    "\"RelWithDebInfo\", \"nproc\": 4, \"avx2_dispatched\": true, "
    "\"comparable\": true}}\n"
    "{\"samples\": {\"setup_s\": 9, \"latency_p50_us\": 3908, "
    "\"throughput_per_s\": 1250}, \"uncorrected\": {\"host_slowdown\": "
    "1.2291811034083366}}\n"
    "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": "
    "{\"setup_s\": {\"value\": 0.22467774200000001, \"unit\": \"s\"}, "
    "\"latency_p50_us\": {\"value\": 628.30845147305854, \"unit\": "
    "\"us\"}, \"throughput_per_s\": {\"value\": 5413862703.2406435, "
    "\"unit\": \"1/s\"}}}\n";
constexpr const char* kTracedStdout =
    "{\"env\": {\"compiler\": \"GNU 12.2.0\", \"nproc\": 4}}\n"
    "{\"samples\": {}, \"uncorrected\": {}}\n"
    "{\"correct\": true, \"attempted\": 10180, \"failed\": 0, "
    "\"metrics\": {\"stencil.serial_cells_per_s\": {\"value\": "
    "91308355.42168504, \"unit\": \"cells/s\"}, "
    "\"stencil.tiled_cells_per_s\": {\"value\": 12711437342.974817, "
    "\"unit\": \"cells/s\"}, \"stencil.autovec_cells_per_s\": "
    "{\"value\": 416669961.50502914, \"unit\": \"cells/s\"}}}\n";

TEST(PerfDoc, SixRunPyLinesAssembleIntoOneParsableDocument) {
  const auto json = loadgen::perf_doc_json("stencil_lab", 1, 4.0, "abc123",
                                           kUntracedStdout, kTracedStdout);
  ASSERT_TRUE(json.has_value()) << json.error().message;
  EXPECT_EQ(json.value().back(), '\n');
  const auto parsed = loadgen::parse_bench_json(json.value());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const auto& doc = parsed.value();
  EXPECT_EQ(doc.bench_name(), "perf_stencil_lab");
  EXPECT_EQ(doc.text("source"), "perfbench");
  EXPECT_EQ(doc.text("revision"), "abc123");
  EXPECT_DOUBLE_EQ(doc.number("seed"), 1.0);
  EXPECT_DOUBLE_EQ(doc.number("seconds"), 4.0);
  // The untraced run's env block, samples and result; the traced run's
  // result as the layers.
  EXPECT_EQ(doc.text("env.compiler"), "GNU 12.2.0");
  EXPECT_DOUBLE_EQ(doc.number("env.nproc"), 4.0);
  EXPECT_DOUBLE_EQ(doc.number("samples.latency_p50_us"), 3908.0);
  EXPECT_DOUBLE_EQ(doc.number("uncorrected.host_slowdown"),
                   1.2291811034083366);
  EXPECT_DOUBLE_EQ(doc.number("result.attempted"), 5.0);
  EXPECT_DOUBLE_EQ(doc.number(kP50), 628.30845147305854);
  EXPECT_DOUBLE_EQ(doc.number("layers.attempted"), 10180.0);
  EXPECT_DOUBLE_EQ(
      doc.number("layers.metrics.stencil.tiled_cells_per_s.value"),
      12711437342.974817);
  const auto violations = loadgen::perf_schema_violations(doc, "stencil_lab");
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(PerfDoc, OutputThatIsNotThreeJsonLinesIsAnError) {
  EXPECT_FALSE(loadgen::perf_doc_json("browse", 1, 4.0, "r",
                                      "{\"env\": {}}\n", kTracedStdout)
                   .has_value());
  EXPECT_FALSE(loadgen::perf_doc_json("browse", 1, 4.0, "r", kUntracedStdout,
                                      "{}\n{}\nperfbench: failed\n")
                   .has_value());
}

/// Every per-size field scale_schema_violations requires.
constexpr const char* kScaleFields[] = {
    "docs", "build_ms", "exhaustive_p50_us", "exhaustive_p99_us",
    "maxscore_p50_us", "maxscore_p99_us", "speedup_p99", "cache_hits",
    "cache_misses", "cache_hit_p99_us", "cache_miss_p99_us",
    "end_to_end_p99_us", "dense_pair_exhaustive_us", "dense_pair_pruned_us",
};

/// A "search_scale" document written through BenchWriter, as bench_gate
/// writes it, with every field at 1 except `omit`, which is left out.
loadgen::BenchDoc scale_doc(double speedup = 6.5,
                            std::uint64_t largest_docs = 100'000,
                            const std::string& omit = "") {
  loadgen::BenchWriter writer("search_scale", "bench_gate");
  writer.integer("seed", 42);
  writer.integer("sizes", 2);
  for (const char* size : {"docs_10000", "docs_100000"}) {
    writer.open(size);
    for (const char* field : kScaleFields) {
      if (std::string(size) + "." + field != omit) writer.integer(field, 1);
    }
    writer.close();
  }
  writer.open("summary");
  writer.integer("largest_docs", largest_docs);
  writer.number("speedup_p99", speedup);
  writer.close();
  const auto parsed = loadgen::parse_bench_json(writer.finish());
  EXPECT_TRUE(parsed.has_value());
  return parsed ? parsed.value() : loadgen::BenchDoc{};
}

TEST(ScaleSchema, WellFormedDocumentPasses) {
  const auto violations = loadgen::scale_schema_violations(scale_doc());
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
}

TEST(ScaleSchema, MissingFieldIsOneViolationNamingIt) {
  const auto violations = loadgen::scale_schema_violations(
      scale_doc(6.5, 100'000, "docs_100000.maxscore_p99_us"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("docs_100000.maxscore_p99_us"),
            std::string::npos);
}

TEST(ScaleSchema, SpeedupBelowFiveIsAViolation) {
  const auto violations = loadgen::scale_schema_violations(scale_doc(4.9));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("summary.speedup_p99"), std::string::npos);
}

TEST(ScaleSchema, LargestCorpusBelow100kIsAViolation) {
  const auto violations =
      loadgen::scale_schema_violations(scale_doc(6.5, 10'000));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("summary.largest_docs"), std::string::npos);
}

}  // namespace
