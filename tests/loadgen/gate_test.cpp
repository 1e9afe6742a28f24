// The bench_gate comparator: multiplicative tolerance in the worse
// direction only, hard-fail on fresh errors, schema/name sanity.
#include "pdcu/loadgen/gate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/smoke.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

loadgen::BenchDoc serve_doc(double p50, double p99, double rate,
                            double timeouts = 0.0) {
  loadgen::BenchDoc doc;
  doc.numbers["bench_schema"] = loadgen::kBenchSchemaVersion;
  doc.strings["bench"] = "serve";
  doc.numbers["latency_us.p50"] = p50;
  doc.numbers["latency_us.p99"] = p99;
  doc.numbers["achieved_rate"] = rate;
  doc.numbers["errors.timeout"] = timeouts;
  return doc;
}

TEST(Gate, IdenticalDocumentsPass) {
  const auto doc = serve_doc(200, 2000, 150);
  EXPECT_TRUE(
      loadgen::gate_compare(doc, doc, loadgen::serve_gate_rules()).empty());
}

TEST(Gate, DriftWithinTolerancePasses) {
  const auto baseline = serve_doc(200, 2000, 150);
  const auto fresh = serve_doc(800, 7000, 40);  // < 5x worse everywhere
  EXPECT_TRUE(loadgen::gate_compare(baseline, fresh,
                                    loadgen::serve_gate_rules())
                  .empty());
}

TEST(Gate, LatencyCliffFails) {
  const auto baseline = serve_doc(200, 2000, 150);
  const auto fresh = serve_doc(200, 2000 * 6, 150);
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::serve_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("latency_us.p99"), std::string::npos);
}

TEST(Gate, ThroughputCliffFailsInTheOtherDirection) {
  const auto baseline = serve_doc(200, 2000, 150);
  const auto fresh = serve_doc(200, 2000, 150 / 6.0);
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::serve_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("achieved_rate"), std::string::npos);
}

TEST(Gate, ImprovementsNeverFail) {
  const auto baseline = serve_doc(200, 2000, 150);
  // 100x faster and 100x more throughput: great, not a violation.
  const auto fresh = serve_doc(2, 20, 15000);
  EXPECT_TRUE(loadgen::gate_compare(baseline, fresh,
                                    loadgen::serve_gate_rules())
                  .empty());
}

TEST(Gate, FreshErrorsFailEvenWhenFast) {
  const auto baseline = serve_doc(200, 2000, 150);
  const auto fresh = serve_doc(100, 1000, 150, /*timeouts=*/3);
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::serve_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("errors.timeout"), std::string::npos);
}

TEST(Gate, MissingRequiredKeyFails) {
  const auto baseline = serve_doc(200, 2000, 150);
  auto fresh = serve_doc(200, 2000, 150);
  fresh.numbers.erase("latency_us.p99");
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::serve_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("latency_us.p99"), std::string::npos);
}

TEST(Gate, SchemaAndNameMismatchesShortCircuit) {
  const auto baseline = serve_doc(200, 2000, 150);

  auto wrong_schema = serve_doc(200, 2000, 150);
  wrong_schema.numbers["bench_schema"] = 99;
  EXPECT_EQ(loadgen::gate_compare(baseline, wrong_schema,
                                  loadgen::serve_gate_rules())
                .size(),
            1u);

  auto wrong_name = serve_doc(200, 2000, 150);
  wrong_name.strings["bench"] = "search";
  const auto violations = loadgen::gate_compare(
      baseline, wrong_name, loadgen::serve_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("mismatch"), std::string::npos);
}

TEST(Gate, TightToleranceCatchesSmallDrift) {
  const auto baseline = serve_doc(200, 2000, 150);
  const auto fresh = serve_doc(200, 2500, 150);  // 1.25x worse p99
  loadgen::GateOptions tight;
  tight.tolerance = 1.2;
  EXPECT_EQ(loadgen::gate_compare(baseline, fresh,
                                  loadgen::serve_gate_rules(), tight)
                .size(),
            1u);
}

TEST(Gate, ZeroBaselineIsSkippedNotDividedBy) {
  auto baseline = serve_doc(0, 2000, 150);  // p50 of 0 — nothing to ratio
  const auto fresh = serve_doc(5000, 2000, 150);
  EXPECT_TRUE(loadgen::gate_compare(baseline, fresh,
                                    loadgen::serve_gate_rules())
                  .empty());
}

loadgen::SweepPoint sweep_point(double rate, double rps) {
  loadgen::SweepPoint point;
  point.rate = rate;
  point.result.achieved_rate = rps;
  point.result.scheduled = 100;
  point.result.completed = 100;
  point.result.peak_connections = 8;
  return point;
}

/// A structurally valid sweep document, built through the real renderer so
/// the schema checker is tested against what the tool actually emits.
loadgen::BenchDoc sweep_doc() {
  const std::vector<loadgen::SweepPoint> points = {
      sweep_point(200, 199),
      sweep_point(800, 795),
  };
  const auto parsed = loadgen::parse_bench_json(
      loadgen::render_sweep_json(points, loadgen::SweepOptions{}));
  EXPECT_TRUE(parsed.has_value());
  return parsed ? parsed.value() : loadgen::BenchDoc{};
}

TEST(SweepSchema, RenderedSweepPassesItsOwnChecker) {
  const auto doc = sweep_doc();
  const auto violations = loadgen::sweep_schema_violations(doc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0]);
  // The renderer's summary matches the synthetic best point.
  EXPECT_DOUBLE_EQ(doc.number("summary.reactor_saturation_rps"), 795.0);
  EXPECT_DOUBLE_EQ(doc.number("points"), 2.0);
}

TEST(SweepSchema, WrongBenchNameShortCircuits) {
  auto doc = sweep_doc();
  doc.strings["bench"] = "serve";
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("sweep_serve"), std::string::npos);
}

TEST(SweepSchema, MissingSummaryKeyIsAViolation) {
  auto doc = sweep_doc();
  doc.numbers.erase("summary.reactor_saturation_rps");
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("summary.reactor_saturation_rps"),
            std::string::npos);
}

TEST(SweepSchema, PointsCountMustMatchThePointObjects) {
  auto doc = sweep_doc();
  doc.numbers["points"] = 7;
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("points"), std::string::npos);
}

TEST(SweepSchema, MissingPerPointFieldIsAViolation) {
  auto doc = sweep_doc();
  doc.numbers.erase("reactor_0.rps");
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("reactor_0.rps"), std::string::npos);
}

TEST(SweepSchema, ABackendWithNoPointsIsAViolation) {
  auto doc = sweep_doc();
  // Drop every reactor point; the checker must flag the hole and the
  // stale 'points' count.
  for (int i = 0; i < 2; ++i) {
    const std::string prefix = "reactor_" + std::to_string(i) + ".";
    for (auto it = doc.numbers.begin(); it != doc.numbers.end();) {
      if (it->first.rfind(prefix, 0) == 0) {
        it = doc.numbers.erase(it);
      } else {
        ++it;
      }
    }
  }
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_GE(violations.size(), 2u);
  EXPECT_NE(violations[0].find("reactor_"), std::string::npos);
}

TEST(SweepSchema, PointsOfARetiredBackendStillCount) {
  // The committed sweep also records pool_N points measured on a
  // connection engine that has since been deleted; 'points' counts them.
  auto doc = sweep_doc();
  doc.numbers["pool_0.rate"] = 200.0;
  doc.numbers["pool_0.rps"] = 13.0;
  doc.numbers["points"] = 3.0;
  const auto violations = loadgen::sweep_schema_violations(doc);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0]);
}

TEST(SweepSchema, SummaryMustDescribeTheBestPoint) {
  auto doc = sweep_doc();
  doc.numbers["summary.reactor_saturation_rps"] = 5000.0;
  const auto violations = loadgen::sweep_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("reactor_saturation_rps"),
            std::string::npos);
}

}  // namespace

namespace {

loadgen::BenchDoc stencil_doc() {
  loadgen::BenchDoc doc;
  doc.numbers["bench_schema"] = loadgen::kBenchSchemaVersion;
  doc.strings["bench"] = "stencil";
  doc.numbers["width"] = 256;
  doc.numbers["height"] = 256;
  doc.numbers["generations"] = 48;
  doc.strings["simd.dispatched"] = "avx2";
  doc.numbers["simd.avx2_available"] = 1;
  doc.numbers["kernels.serial_cells_per_s"] = 1.0e8;
  doc.numbers["kernels.tiled_cells_per_s"] = 1.1e8;
  doc.numbers["kernels.autovec_cells_per_s"] = 6.0e8;
  doc.numbers["kernels.simd_cells_per_s"] = 1.6e9;
  doc.numbers["kernels.simd_vs_autovec"] = 2.6;
  doc.numbers["parity.checked"] = 12;
  doc.numbers["parity.mismatches"] = 0;
  doc.numbers["virtual.p1_speedup"] = 1.0;
  doc.numbers["virtual.p2_speedup"] = 1.8;
  doc.numbers["virtual.p4_speedup"] = 3.4;
  doc.numbers["virtual.p8_speedup"] = 6.5;
  doc.numbers["virtual.p16_speedup"] = 11.7;
  doc.numbers["virtual.halo_mismatches"] = 0;
  doc.numbers["errors.total"] = 0;
  return doc;
}

}  // namespace

TEST(StencilSchema, WellFormedDocumentPasses) {
  EXPECT_TRUE(loadgen::stencil_schema_violations(stencil_doc()).empty());
}

TEST(StencilSchema, WrongBenchNameShortCircuits) {
  auto doc = stencil_doc();
  doc.strings["bench"] = "serve";
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("'serve'"), std::string::npos);
}

TEST(StencilSchema, MissingKernelKeyIsAViolation) {
  auto doc = stencil_doc();
  doc.numbers.erase("kernels.simd_cells_per_s");
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("kernels.simd_cells_per_s"),
            std::string::npos);
}

TEST(StencilSchema, MissingCurvePointIsAViolation) {
  auto doc = stencil_doc();
  doc.numbers.erase("virtual.p8_speedup");
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("virtual.p8_speedup"), std::string::npos);
}

TEST(StencilSchema, ParityMismatchIsAViolation) {
  auto doc = stencil_doc();
  doc.numbers["parity.mismatches"] = 1;
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("parity.mismatches"), std::string::npos);
}

TEST(StencilSchema, HaloMismatchIsAViolation) {
  auto doc = stencil_doc();
  doc.numbers["virtual.halo_mismatches"] = 2;
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("halo"), std::string::npos);
}

TEST(StencilSchema, WeakSpeedupHeadlineIsAViolation) {
  auto doc = stencil_doc();
  doc.numbers["virtual.p4_speedup"] = 1.1;
  const auto violations = loadgen::stencil_schema_violations(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("p4_speedup"), std::string::npos);
}

TEST(StencilSchema, ThroughputRulesTreatLowerAsWorse) {
  const auto baseline = stencil_doc();
  auto fresh = stencil_doc();
  fresh.numbers["kernels.autovec_cells_per_s"] = 6.0e8 / 6.0;  // > 5x slower
  const auto violations = loadgen::gate_compare(
      baseline, fresh, loadgen::stencil_gate_rules());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("kernels.autovec_cells_per_s"),
            std::string::npos);
}
