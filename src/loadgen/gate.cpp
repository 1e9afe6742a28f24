#include "pdcu/loadgen/gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pdcu::loadgen {

namespace {

std::string format_violation(const GateRule& rule, double baseline,
                             double fresh, double tolerance) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "%s: fresh %.1f vs baseline %.1f exceeds the %.1fx "
                "tolerance (%s is worse)",
                rule.key.c_str(), fresh, baseline, tolerance,
                rule.higher_is_worse ? "higher" : "lower");
  return buffer;
}

}  // namespace

std::vector<GateRule> serve_gate_rules() {
  return {
      {"latency_us.p50", /*higher_is_worse=*/true, /*required=*/true},
      {"latency_us.p99", /*higher_is_worse=*/true, /*required=*/true},
      {"achieved_rate", /*higher_is_worse=*/false, /*required=*/true},
  };
}

std::vector<GateRule> search_gate_rules() {
  return {
      {"query_us.p50", /*higher_is_worse=*/true, /*required=*/true},
      {"query_us.p99", /*higher_is_worse=*/true, /*required=*/true},
      {"index_build_ms", /*higher_is_worse=*/true, /*required=*/true},
  };
}

std::vector<GateRule> scale_gate_rules() {
  return {
      {"docs_10000.maxscore_p50_us", /*higher_is_worse=*/true,
       /*required=*/true},
      {"docs_10000.maxscore_p99_us", /*higher_is_worse=*/true,
       /*required=*/true},
      {"docs_10000.build_ms", /*higher_is_worse=*/true, /*required=*/true},
      {"docs_10000.cache_hit_p99_us", /*higher_is_worse=*/true,
       /*required=*/true},
  };
}

std::vector<std::string> scale_schema_violations(const BenchDoc& doc,
                                                 double min_speedup) {
  std::vector<std::string> violations;
  if (doc.schema_version() != kBenchSchemaVersion) {
    violations.push_back("search_scale bench_schema " +
                         std::to_string(doc.schema_version()) +
                         " != expected " +
                         std::to_string(kBenchSchemaVersion));
    return violations;
  }
  if (doc.bench_name() != "search_scale") {
    violations.push_back("bench name '" + doc.bench_name() +
                         "' != 'search_scale'");
    return violations;
  }

  for (const char* size : {"docs_10000", "docs_100000"}) {
    for (const char* field :
         {"docs", "build_ms", "exhaustive_p50_us", "exhaustive_p99_us",
          "maxscore_p50_us", "maxscore_p99_us", "speedup_p99", "cache_hits",
          "cache_misses", "cache_hit_p99_us", "cache_miss_p99_us",
          "end_to_end_p99_us", "dense_pair_exhaustive_us",
          "dense_pair_pruned_us"}) {
      const std::string key = std::string(size) + "." + field;
      if (!doc.has_number(key)) violations.push_back(key + " missing");
    }
  }

  // The headline claim the baseline commits to: block-max early
  // termination is at least min_speedup times better at p99 on the
  // largest corpus.
  if (doc.number("summary.largest_docs", 0.0) < 100'000.0) {
    violations.push_back("summary.largest_docs < 100000");
  }
  const double speedup = doc.number("summary.speedup_p99", 0.0);
  if (speedup < min_speedup) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "summary.speedup_p99 %.2f < required %.2fx "
                  "(MaxScore vs exhaustive at the largest corpus)",
                  speedup, min_speedup);
    violations.push_back(buffer);
  }
  return violations;
}

std::vector<GateRule> stencil_gate_rules() {
  return {
      {"kernels.serial_cells_per_s", /*higher_is_worse=*/false,
       /*required=*/true},
      {"kernels.tiled_cells_per_s", /*higher_is_worse=*/false,
       /*required=*/true},
      {"kernels.autovec_cells_per_s", /*higher_is_worse=*/false,
       /*required=*/true},
  };
}

std::vector<std::string> stencil_schema_violations(const BenchDoc& doc,
                                                   double min_speedup) {
  std::vector<std::string> violations;
  if (doc.schema_version() != kBenchSchemaVersion) {
    violations.push_back("stencil bench_schema " +
                         std::to_string(doc.schema_version()) +
                         " != expected " +
                         std::to_string(kBenchSchemaVersion));
    return violations;
  }
  if (doc.bench_name() != "stencil") {
    violations.push_back("bench name '" + doc.bench_name() +
                         "' != 'stencil'");
    return violations;
  }

  for (const char* field :
       {"width", "height", "generations", "kernels.serial_cells_per_s",
        "kernels.tiled_cells_per_s", "kernels.autovec_cells_per_s",
        "kernels.simd_cells_per_s", "kernels.simd_vs_autovec",
        "parity.checked", "parity.mismatches", "virtual.halo_mismatches",
        "errors.total"}) {
    if (!doc.has_number(field)) {
      violations.push_back(std::string(field) + " missing");
    }
  }
  for (const char* p : {"p1", "p2", "p4", "p8", "p16"}) {
    const std::string key = std::string("virtual.") + p + "_speedup";
    if (!doc.has_number(key)) violations.push_back(key + " missing");
  }
  if (!violations.empty()) return violations;

  // Honesty anchors: the baseline must have been measured with every
  // kernel agreeing with the serial oracle and the halo-message count
  // matching the analytic 2 * ranks * generations.
  if (doc.number("parity.checked", 0.0) <= 0.0) {
    violations.push_back("parity.checked is zero — no kernels compared");
  }
  if (doc.number("parity.mismatches", 0.0) != 0.0) {
    violations.push_back("parity.mismatches != 0 — a kernel diverged "
                         "from the serial oracle");
  }
  if (doc.number("virtual.halo_mismatches", 0.0) != 0.0) {
    violations.push_back("virtual.halo_mismatches != 0 — halo rounds "
                         "disagree with the analytic count");
  }
  if (doc.number("errors.total", 0.0) != 0.0) {
    violations.push_back("errors.total != 0");
  }

  // The committed headline: decomposing the torus buys real virtual-time
  // speedup by 4 ranks.
  const double speedup = doc.number("virtual.p4_speedup", 0.0);
  if (speedup < min_speedup) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "virtual.p4_speedup %.2f < required %.2fx",
                  speedup, min_speedup);
    violations.push_back(buffer);
  }
  return violations;
}

std::vector<std::string> sweep_schema_violations(const BenchDoc& doc) {
  std::vector<std::string> violations;
  if (doc.schema_version() != kBenchSchemaVersion) {
    violations.push_back("sweep bench_schema " +
                         std::to_string(doc.schema_version()) +
                         " != expected " +
                         std::to_string(kBenchSchemaVersion));
    return violations;
  }
  if (doc.bench_name() != "sweep_serve") {
    violations.push_back("bench name '" + doc.bench_name() +
                         "' != 'sweep_serve'");
    return violations;
  }

  // Check each reactor_N point and remember the best served rate so the
  // summary can be cross-checked.
  double best = 0.0;
  int reactor_points = 0;
  for (int i = 0;; ++i) {
    const std::string point = "reactor_" + std::to_string(i);
    if (!doc.has_number(point + ".rate")) break;
    ++reactor_points;
    for (const char* field : {"rps", "scheduled", "completed"}) {
      if (!doc.has_number(point + "." + field)) {
        violations.push_back(point + "." + field + " missing");
      }
    }
    best = std::max(best, doc.number(point + ".rps", 0.0));
  }
  if (reactor_points == 0) {
    violations.push_back("no reactor_N points in the sweep");
  }
  // 'points' counts every top-level point object ("<name>.rate"), so a
  // document that also records points of a since-deleted backend stays
  // self-consistent.
  int point_objects = 0;
  for (const auto& [key, value] : doc.numbers) {
    const auto dot = key.find('.');
    if (dot != std::string::npos && key.compare(dot, std::string::npos,
                                                ".rate") == 0) {
      ++point_objects;
    }
  }
  if (doc.number("points", 0.0) != point_objects) {
    violations.push_back("'points' does not match the point objects found");
  }

  // The summary must describe the points it sits next to (small slack for
  // decimal round-tripping).
  if (!doc.has_number("summary.reactor_saturation_rps")) {
    violations.push_back("summary.reactor_saturation_rps missing");
  } else if (reactor_points > 0 &&
             std::abs(doc.number("summary.reactor_saturation_rps") - best) >
                 0.01 * std::max(1.0, best)) {
    violations.push_back(
        "summary.reactor_saturation_rps does not match the best reactor "
        "point");
  }
  return violations;
}

std::vector<std::string> gate_compare(const BenchDoc& baseline,
                                      const BenchDoc& fresh,
                                      const std::vector<GateRule>& rules,
                                      const GateOptions& options) {
  std::vector<std::string> violations;
  if (baseline.schema_version() != kBenchSchemaVersion) {
    violations.push_back(
        "baseline bench_schema " +
        std::to_string(baseline.schema_version()) + " != expected " +
        std::to_string(kBenchSchemaVersion) + " (refresh the baseline)");
    return violations;
  }
  if (fresh.schema_version() != kBenchSchemaVersion) {
    violations.push_back("fresh document has the wrong bench_schema");
    return violations;
  }
  if (baseline.bench_name() != fresh.bench_name()) {
    violations.push_back("bench name mismatch: baseline '" +
                         baseline.bench_name() + "' vs fresh '" +
                         fresh.bench_name() + "'");
    return violations;
  }

  // A fresh run that errored is a failure regardless of how fast the
  // successful requests were.
  for (const auto& [key, value] : fresh.numbers) {
    if (key.rfind("errors.", 0) == 0 && value != 0.0) {
      violations.push_back(key + " is " + std::to_string(value) +
                           " in the fresh run (expected 0)");
    }
  }

  for (const GateRule& rule : rules) {
    const bool in_baseline = baseline.has_number(rule.key);
    const bool in_fresh = fresh.has_number(rule.key);
    if (!in_baseline || !in_fresh) {
      if (rule.required) {
        violations.push_back(rule.key + " missing from the " +
                             (in_baseline ? "fresh run" : "baseline"));
      }
      continue;
    }
    const double base = baseline.number(rule.key);
    const double now = fresh.number(rule.key);
    if (base <= 0.0) continue;  // nothing meaningful to ratio against
    if (rule.higher_is_worse) {
      if (now > base * options.tolerance) {
        violations.push_back(
            format_violation(rule, base, now, options.tolerance));
      }
    } else if (now < base / options.tolerance) {
      violations.push_back(
          format_violation(rule, base, now, options.tolerance));
    }
  }
  return violations;
}

}  // namespace pdcu::loadgen
