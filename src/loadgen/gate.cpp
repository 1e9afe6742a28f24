#include "pdcu/loadgen/gate.hpp"

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

std::vector<std::string> scale_schema_violations(const BenchDoc& doc) {
  constexpr double kMinSpeedup = 5.0;
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
  // termination is at least kMinSpeedup times better at p99 on the
  // largest corpus.
  if (doc.number("summary.largest_docs", 0.0) < 100'000.0) {
    violations.push_back("summary.largest_docs < 100000");
  }
  const double speedup = doc.number("summary.speedup_p99", 0.0);
  if (speedup < kMinSpeedup) {
    char buffer[128];
    std::snprintf(buffer, sizeof buffer,
                  "summary.speedup_p99 %.2f < required %.2fx "
                  "(MaxScore vs exhaustive at the largest corpus)",
                  speedup, kMinSpeedup);
    violations.push_back(buffer);
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
