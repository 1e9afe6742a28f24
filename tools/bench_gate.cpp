// bench_gate — the perf-trajectory regression gate.
//
// Re-measures the committed baselines with the exact same code that
// produced them and fails when a fresh number drifts past the tolerance
// in the worse direction:
//
//   * BENCH_serve.json   — `pdcu loadgen --smoke`'s document: an embedded
//     HttpServer on an ephemeral port driven by the open-loop load
//     generator (fixed seed, identical schedule on every machine).
//   * BENCH_search.json  — benchjson::search_summary_json(): index build
//     time + query-latency percentiles over the canonical query shapes.
//
//   * BENCH_stencil.json  — benchjson::stencil_summary_json(): Game of
//     Life kernel throughputs + virtual-time speedup curve. The gate
//     re-measures at a smaller grid (throughput rules only — cells/s is
//     grid-size independent to first order) and structurally validates
//     the committed parity/halo/speedup claims.
//
//   * BENCH_search_scale.json — benchjson::search_scale_summary_json():
//     exhaustive-vs-MaxScore query latency on synthetic corpora plus the
//     query-cache hit/miss split. The 10k section is re-measured; the
//     100k section (and its >= 5x p99 speedup claim) is validated
//     structurally (see loadgen::scale_schema_violations) because a 100k
//     corpus build is ~1 min of tokenization.
//
// BENCH_sweep_serve.json (the latency-vs-offered-rate sweep) is gated
// structurally only — the sweep takes too long to re-measure here, so
// the gate validates the committed document's schema and internal
// consistency instead (see loadgen::sweep_schema_violations).
//
// Tolerance is multiplicative (default 5x, see loadgen/gate.hpp) because
// absolute numbers vary wildly across CI runners; an order-of-magnitude
// cliff is a regression anywhere. On top of that, each comparison gets up
// to --attempts (default 3) fresh measurements and passes if ANY attempt
// passes: noise on a contended runner is one-sided (a stall can only make
// a run look slower, never faster), so one clean attempt proves the code
// can still hit baseline-shaped numbers, while a real regression fails
// every attempt. Exit 0 = gate passes, 1 = regression or measurement
// error, 2 = usage/baseline-file problems.
//
//   ./build/tools/bench_gate                    # from the repo root
//   ./build/tools/bench_gate --tolerance 3 --serve-baseline BENCH_serve.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/gate.hpp"
#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/loadgen/smoke.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance X] [--attempts N]"
               " [--serve-baseline PATH]\n"
               "          [--search-baseline PATH] [--sweep-baseline PATH]\n"
               "          [--scale-baseline PATH] [--stencil-baseline PATH]\n"
               "          [--skip-serve] [--skip-search] [--skip-sweep]\n"
               "          [--skip-scale] [--skip-stencil]\n"
               "Baselines default to BENCH_serve.json / BENCH_search.json /\n"
               "BENCH_sweep_serve.json / BENCH_search_scale.json /\n"
               "BENCH_stencil.json in the current directory (run from the"
               " repo root).\n",
               argv0);
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Loads and parses a committed baseline; prints its own error.
bool load_baseline(const std::string& path, loadgen::BenchDoc& doc) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "bench_gate: cannot read baseline '%s'\n",
                 path.c_str());
    return false;
  }
  auto parsed = loadgen::parse_bench_json(text);
  if (!parsed) {
    std::fprintf(stderr, "bench_gate: baseline '%s': %s\n", path.c_str(),
                 (parsed.error().code + ": " + parsed.error().message).c_str());
    return false;
  }
  doc = std::move(parsed.value());
  return true;
}

/// Measures up to `attempts` fresh documents via `measure` (which returns
/// the fresh JSON, or empty on measurement failure) and compares each
/// against the baseline; the gate passes on the first clean attempt.
/// Returns the final attempt's violation count (0 = pass).
template <typename MeasureFn>
int gated(const char* what, const loadgen::BenchDoc& baseline,
          const std::vector<loadgen::GateRule>& rules,
          const loadgen::GateOptions& options, int attempts,
          MeasureFn measure) {
  std::vector<std::string> violations;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    const std::string json = measure();
    if (json.empty()) return 1;  // measure() printed its own error
    auto fresh = loadgen::parse_bench_json(json);
    if (!fresh) {
      std::fprintf(stderr, "bench_gate: fresh %s document: %s\n", what,
                   (fresh.error().code + ": " + fresh.error().message)
                       .c_str());
      return 1;
    }
    violations =
        loadgen::gate_compare(baseline, fresh.value(), rules, options);
    if (violations.empty()) {
      std::printf("bench_gate: %-6s PASS (tolerance %.1fx, attempt %d/%d)\n",
                  what, options.tolerance, attempt, attempts);
      for (const auto& rule : rules) {
        std::printf("  %-18s baseline %12.1f  fresh %12.1f\n",
                    rule.key.c_str(), baseline.number(rule.key, 0.0),
                    fresh.value().number(rule.key, 0.0));
      }
      return 0;
    }
    if (attempt < attempts) {
      std::printf("bench_gate: %-6s attempt %d/%d noisy, retrying:\n", what,
                  attempt, attempts);
      for (const auto& violation : violations) {
        std::printf("  %s\n", violation.c_str());
      }
    }
  }
  std::printf("bench_gate: %-6s FAIL (all %d attempts)\n", what, attempts);
  for (const auto& violation : violations) {
    std::printf("  %s\n", violation.c_str());
  }
  return static_cast<int>(violations.size());
}

}  // namespace

int main(int argc, char** argv) {
  loadgen::GateOptions gate;
  std::string serve_baseline = "BENCH_serve.json";
  std::string search_baseline = "BENCH_search.json";
  std::string sweep_baseline = "BENCH_sweep_serve.json";
  std::string scale_baseline = "BENCH_search_scale.json";
  std::string stencil_baseline = "BENCH_stencil.json";
  bool run_serve = true;
  bool run_search = true;
  bool run_sweep = true;
  bool run_scale = true;
  bool run_stencil = true;
  int attempts = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tolerance") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      gate.tolerance = std::strtod(v, nullptr);
      if (gate.tolerance < 1.0) {
        std::fprintf(stderr, "bench_gate: tolerance must be >= 1\n");
        return 2;
      }
    } else if (arg == "--attempts") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      attempts = std::atoi(v);
      if (attempts < 1) {
        std::fprintf(stderr, "bench_gate: attempts must be >= 1\n");
        return 2;
      }
    } else if (arg == "--serve-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      serve_baseline = v;
    } else if (arg == "--search-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      search_baseline = v;
    } else if (arg == "--sweep-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      sweep_baseline = v;
    } else if (arg == "--scale-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      scale_baseline = v;
    } else if (arg == "--stencil-baseline") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      stencil_baseline = v;
    } else if (arg == "--skip-stencil") {
      run_stencil = false;
    } else if (arg == "--skip-serve") {
      run_serve = false;
    } else if (arg == "--skip-search") {
      run_search = false;
    } else if (arg == "--skip-sweep") {
      run_sweep = false;
    } else if (arg == "--skip-scale") {
      run_scale = false;
    } else {
      return usage(argv[0]);
    }
  }

  int violations = 0;

  if (run_serve) {
    loadgen::BenchDoc baseline;
    if (!load_baseline(serve_baseline, baseline)) return 2;
    violations += gated(
        "serve", baseline, loadgen::serve_gate_rules(), gate, attempts,
        []() -> std::string {
          loadgen::Options used;
          auto result = loadgen::run_smoke({}, &used);
          if (!result) {
            std::fprintf(
                stderr, "bench_gate: smoke run failed: %s\n",
                (result.error().code + ": " + result.error().message)
                    .c_str());
            return {};
          }
          return loadgen::render_result_json(result.value(), "serve", used);
        });
  }

  if (run_search) {
    loadgen::BenchDoc baseline;
    if (!load_baseline(search_baseline, baseline)) return 2;
    violations += gated(
        "search", baseline, loadgen::search_gate_rules(), gate, attempts,
        [] { return pdcu::benchjson::search_summary_json("bench_gate"); });
  }

  if (run_scale) {
    loadgen::BenchDoc baseline;
    if (!load_baseline(scale_baseline, baseline)) return 2;
    // Structural check first: the committed document must carry both
    // corpus sizes and its measured >= 5x p99 speedup claim. The 100k
    // section is not re-measured (a 100k corpus build is ~1 min of
    // tokenization; three attempts would dominate the gate's runtime).
    const auto scale_violations = loadgen::scale_schema_violations(baseline);
    if (scale_violations.empty()) {
      std::printf(
          "bench_gate: scale  PASS (schema check, %.1fx speedup at %d "
          "docs)\n",
          baseline.number("summary.speedup_p99", 0.0),
          static_cast<int>(baseline.number("summary.largest_docs", 0.0)));
    } else {
      std::printf("bench_gate: scale  FAIL (schema check)\n");
      for (const auto& violation : scale_violations) {
        std::printf("  %s\n", violation.c_str());
      }
      violations += static_cast<int>(scale_violations.size());
    }
    // Then re-measure the 10k section with the same code that produced
    // the baseline and compare under the tolerance.
    violations += gated("scale", baseline, loadgen::scale_gate_rules(), gate,
                        attempts, [] {
                          return pdcu::benchjson::search_scale_summary_json(
                              "bench_gate", {10'000});
                        });
  }

  if (run_stencil) {
    loadgen::BenchDoc baseline;
    if (!load_baseline(stencil_baseline, baseline)) return 2;
    // Structural check first: the committed document must carry the full
    // kernel set, a parity sweep with zero mismatches, the p{1..16}
    // virtual-time curve, and the analytic halo count holding.
    const auto stencil_violations =
        loadgen::stencil_schema_violations(baseline);
    if (stencil_violations.empty()) {
      std::printf(
          "bench_gate: stencil PASS (schema check, %.2fx virtual speedup "
          "at 4 ranks, simd=%s)\n",
          baseline.number("virtual.p4_speedup", 0.0),
          baseline.text("simd.dispatched").c_str());
    } else {
      std::printf("bench_gate: stencil FAIL (schema check)\n");
      for (const auto& violation : stencil_violations) {
        std::printf("  %s\n", violation.c_str());
      }
      violations += static_cast<int>(stencil_violations.size());
    }
    // Then re-measure kernel throughput at a smaller grid (cells/s is
    // grid-size independent to first order; 96x96 keeps three attempts
    // cheap) and compare under the tolerance.
    violations += gated("stencil", baseline, loadgen::stencil_gate_rules(),
                        gate, attempts, [] {
                          return pdcu::benchjson::stencil_summary_json(
                              "bench_gate", 96, 96, 32);
                        });
  }

  if (run_sweep) {
    loadgen::BenchDoc sweep_doc;
    if (!load_baseline(sweep_baseline, sweep_doc)) return 2;
    const auto sweep_violations =
        loadgen::sweep_schema_violations(sweep_doc);
    if (sweep_violations.empty()) {
      std::printf("bench_gate: sweep  PASS (schema check, %d points)\n",
                  static_cast<int>(sweep_doc.number("points", 0.0)));
    } else {
      std::printf("bench_gate: sweep  FAIL (schema check)\n");
      for (const auto& violation : sweep_violations) {
        std::printf("  %s\n", violation.c_str());
      }
      violations += static_cast<int>(sweep_violations.size());
    }
  }

  return violations == 0 ? 0 : 1;
}
