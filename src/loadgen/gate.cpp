#include "pdcu/loadgen/gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pdcu/support/strings.hpp"

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

/// The violation of a document that is not a current-schema `name`
/// document, or empty when it is one. Every structural check starts here.
std::vector<std::string> header_violations(const BenchDoc& doc,
                                           const std::string& name) {
  if (doc.schema_version() != kBenchSchemaVersion) {
    return {name + " bench_schema " + std::to_string(doc.schema_version()) +
            " != expected " + std::to_string(kBenchSchemaVersion)};
  }
  if (doc.bench_name() != name) {
    return {"bench name '" + doc.bench_name() + "' != '" + name + "'"};
  }
  return {};
}

/// A "<key> missing" violation for each of `keys` without a number.
void require_numbers(const BenchDoc& doc,
                     const std::vector<std::string>& keys,
                     std::vector<std::string>& violations) {
  for (const std::string& key : keys) {
    if (!doc.has_number(key)) violations.push_back(key + " missing");
  }
}

/// The non-blank lines of `text`, trimmed.
std::vector<std::string> json_lines(std::string_view text) {
  std::vector<std::string> lines;
  for (const auto& line : strings::split_lines(text)) {
    const auto trimmed = strings::trim(line);
    if (!trimmed.empty()) lines.emplace_back(trimmed);
  }
  return lines;
}

}  // namespace

std::vector<GateRule> perf_gate_rules(std::string_view workload) {
  const auto result = [](const char* metric, bool higher_is_worse) {
    return GateRule{std::string("result.metrics.") + metric + ".value",
                    higher_is_worse};
  };
  const auto layer = [](const char* metric, bool higher_is_worse) {
    return GateRule{std::string("layers.metrics.") + metric + ".value",
                    higher_is_worse};
  };
  std::vector<GateRule> rules = {
      result("throughput_per_s", /*higher_is_worse=*/false),
      result("latency_p50_us", /*higher_is_worse=*/true),
  };
  if (workload == "browse") {
    rules.push_back(layer("client.latency_p99_us", true));
  } else if (workload == "search_corpus") {
    rules.push_back(result("setup_s", true));
    rules.push_back(layer("search.rank_us.p50", true));
    rules.push_back(layer("search.rank_us.p99", true));
  } else if (workload == "stencil_lab") {
    rules.push_back(layer("stencil.serial_cells_per_s", false));
    rules.push_back(layer("stencil.tiled_cells_per_s", false));
    rules.push_back(layer("stencil.autovec_cells_per_s", false));
  }
  return rules;
}

std::vector<std::string> perf_schema_violations(const BenchDoc& doc,
                                                std::string_view workload) {
  auto violations = header_violations(doc, "perf_" + std::string(workload));
  if (!violations.empty()) return violations;
  require_numbers(doc, {"seed", "seconds", "result.attempted",
                        "result.failed", "layers.failed"},
                  violations);
  if (doc.text("revision").empty()) violations.push_back("revision missing");
  if (doc.number("result.attempted", 0.0) <= 0.0) {
    violations.push_back("result.attempted is zero — nothing was measured");
  }
  for (const char* counter : {"result.failed", "layers.failed"}) {
    if (doc.number(counter, 0.0) != 0.0) {
      violations.push_back(std::string(counter) +
                           " != 0 — the committed run failed operations "
                           "or answer checks");
    }
  }
  for (const GateRule& rule : perf_gate_rules(workload)) {
    if (!doc.has_number(rule.key)) violations.push_back(rule.key + " missing");
  }
  return violations;
}

Expected<std::string> perf_doc_json(std::string_view workload,
                                    std::uint64_t seed, double seconds,
                                    std::string_view revision,
                                    std::string_view untraced_stdout,
                                    std::string_view traced_stdout) {
  const auto untraced = json_lines(untraced_stdout);
  const auto traced = json_lines(traced_stdout);
  if (untraced.size() != 3 || traced.size() != 3) {
    return Error::make("perf_doc.lines",
                       "expected three JSON lines from each run.py run, got " +
                           std::to_string(untraced.size()) + " untraced and " +
                           std::to_string(traced.size()) + " traced");
  }
  for (const auto* lines : {&untraced, &traced}) {
    for (const std::string& line : *lines) {
      if (line.front() != '{' || line.back() != '}') {
        return Error::make("perf_doc.lines", "not a JSON object: " + line);
      }
    }
  }
  BenchWriter writer("perf_" + std::string(workload), "perfbench");
  writer.integer("seed", seed);
  writer.number("seconds", seconds);
  writer.text("revision", revision);
  writer.splice(untraced[0]);  // {"env": {...}}
  writer.splice(untraced[1]);  // {"samples": {...}, "uncorrected": {...}}
  writer.raw("result", untraced[2]);
  writer.raw("layers", traced[2]);
  std::string json = writer.finish();
  if (auto parsed = parse_bench_json(json); !parsed) {
    return parsed.error().context("assembled perf_" + std::string(workload));
  }
  return json;
}

std::vector<GateRule> scale_gate_rules() {
  return {
      {"docs_10000.maxscore_p50_us", /*higher_is_worse=*/true},
      {"docs_10000.maxscore_p99_us", /*higher_is_worse=*/true},
      {"docs_10000.build_ms", /*higher_is_worse=*/true},
      {"docs_10000.cache_hit_p99_us", /*higher_is_worse=*/true},
  };
}

std::vector<std::string> scale_schema_violations(const BenchDoc& doc,
                                                 double min_speedup) {
  auto violations = header_violations(doc, "search_scale");
  if (!violations.empty()) return violations;

  for (const char* size : {"docs_10000", "docs_100000"}) {
    for (const char* field :
         {"docs", "build_ms", "exhaustive_p50_us", "exhaustive_p99_us",
          "maxscore_p50_us", "maxscore_p99_us", "speedup_p99", "cache_hits",
          "cache_misses", "cache_hit_p99_us", "cache_miss_p99_us",
          "end_to_end_p99_us", "dense_pair_exhaustive_us",
          "dense_pair_pruned_us"}) {
      require_numbers(doc, {std::string(size) + "." + field}, violations);
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

std::vector<std::string> stencil_schema_violations(const BenchDoc& doc,
                                                   double min_speedup) {
  auto violations = header_violations(doc, "stencil");
  if (!violations.empty()) return violations;

  require_numbers(
      doc,
      {"width", "height", "generations", "kernels.serial_cells_per_s",
       "kernels.tiled_cells_per_s", "kernels.autovec_cells_per_s",
       "kernels.simd_cells_per_s", "kernels.simd_vs_autovec",
       "parity.checked", "parity.mismatches", "virtual.halo_mismatches",
       "errors.total", "virtual.p1_speedup", "virtual.p2_speedup",
       "virtual.p4_speedup", "virtual.p8_speedup", "virtual.p16_speedup"},
      violations);
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
  auto violations = header_violations(doc, "sweep_serve");
  if (!violations.empty()) return violations;

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
  // Every point object ("<name>.rate") must be one of the reactor_N points
  // just checked.
  for (const auto& [key, value] : doc.numbers) {
    const auto dot = key.find('.');
    if (dot != std::string::npos && key.compare(dot, std::string::npos,
                                                ".rate") == 0 &&
        key.compare(0, 8, "reactor_") != 0) {
      violations.push_back(key.substr(0, dot) + " is not a reactor_N point");
    }
  }
  if (doc.number("points", 0.0) != reactor_points) {
    violations.push_back("'points' does not match the reactor_N points");
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

  // A fresh run that failed an operation or an answer check is a failure
  // regardless of how fast the rest was.
  for (const auto& [key, value] : fresh.numbers) {
    if ((key == "failed" || key.ends_with(".failed")) && value != 0.0) {
      violations.push_back(key + " is " + std::to_string(value) +
                           " in the fresh run (expected 0)");
    }
  }

  for (const GateRule& rule : rules) {
    const bool in_baseline = baseline.has_number(rule.key);
    const bool in_fresh = fresh.has_number(rule.key);
    if (!in_baseline || !in_fresh) {
      violations.push_back(rule.key + " missing from the " +
                           (in_baseline ? "fresh run" : "baseline"));
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
