// bench_gate — the perf-trajectory regression gate.
//
// The committed trajectory is perfbench's (perfbench/, BENCHMARK.json):
// one BENCH_perf_<workload>.json per workload, assembled by
// loadgen::perf_doc_json from an untraced and a traced `python3
// perfbench/run.py` run. Each committed document is checked structurally
// (loadgen::perf_schema_violations), then re-measured with the same
// function that wrote it — 4 s runs on the document's seed — and compared
// under loadgen::perf_gate_rules. BENCH_search_scale.json re-measures its
// 10k section and has its 100k claim checked; BENCH_stencil.json and
// BENCH_sweep_serve.json are checked structurally.
//
// Tolerance is multiplicative (5x, see loadgen/gate.hpp): absolute numbers
// vary wildly across CI runners, while an order-of-magnitude cliff is a
// regression anywhere. Each comparison gets up to three fresh measurements
// and passes on the first clean one: runner noise is one-sided (a stall
// only makes a run look slower), so one clean attempt proves the code can
// still hit baseline-shaped numbers, while a real regression fails every
// attempt. A fresh run that fails an operation or an answer check fails
// its attempt however fast it was. Exit 0 = pass, 1 = regression or
// measurement error, 2 = usage or baseline-file problems.
//
//   ./build/tools/bench_gate             # from the repo root
//   ./build/tools/bench_gate --refresh   # rewrite BENCH_perf_*.json
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "bench/bench_json.hpp"
#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/gate.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

constexpr const char* kWorkloads[] = {"browse", "search_corpus",
                                      "author_reload", "stencil_lab"};
/// Committed documents come from 25 s runs (BENCHMARK.json's run length)
/// on seed 1; the gate re-measures each with 4 s runs on the doc's seed.
constexpr double kRefreshSeconds = 25.0;
constexpr std::uint64_t kRefreshSeed = 1;
constexpr double kGateSeconds = 4.0;
constexpr int kAttempts = 3;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--refresh]\n"
               "Run from the repo root. Without arguments, checks and\n"
               "re-measures the committed BENCH_*.json documents; with\n"
               "--refresh, rewrites BENCH_perf_<workload>.json from %g s\n"
               "perfbench runs.\n",
               argv0, kRefreshSeconds);
  return 2;
}

/// Runs `command` through the shell and returns its standard output, or
/// empty after printing why when it cannot start or exits non-zero.
std::string capture(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "bench_gate: cannot run '%s'\n", command.c_str());
    return {};
  }
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, got);
  }
  const int status = ::pclose(pipe);
  if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_gate: '%s' failed\n", command.c_str());
    return {};
  }
  return out;
}

/// The checkout's revision, marked -dirty when tracked files differ.
std::string revision() {
  const std::string out =
      capture("git describe --always --dirty --abbrev=40 2>/dev/null");
  const auto trimmed = pdcu::strings::trim(out);
  return trimmed.empty() ? "unknown" : std::string(trimmed);
}

/// Measures one BENCH_perf document: an untraced and a traced run.py run
/// of `workload`, assembled by loadgen::perf_doc_json. The committed
/// documents and the gate's fresh ones both come from here, so they
/// cannot drift apart. Empty (after printing why) on failure.
std::string measure_perf_doc(const std::string& workload, std::uint64_t seed,
                             double seconds) {
  char command[256];
  std::snprintf(command, sizeof command,
                "python3 perfbench/run.py --workload %s --seed %llu "
                "--seconds %g --trace ",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds);
  const std::string untraced = capture(std::string(command) + "0");
  if (untraced.empty()) return {};
  const std::string traced = capture(std::string(command) + "1");
  if (traced.empty()) return {};
  auto doc = loadgen::perf_doc_json(workload, seed, seconds, revision(),
                                    untraced, traced);
  if (!doc) {
    std::fprintf(stderr, "bench_gate: %s: %s\n", workload.c_str(),
                 doc.error().message.c_str());
    return {};
  }
  return std::move(doc).value();
}

/// Loads and parses a committed baseline; prints its own error.
bool load_baseline(const std::string& path, loadgen::BenchDoc& doc) {
  auto parsed = pdcu::fs::read_file(path).and_then(loadgen::parse_bench_json);
  if (!parsed) {
    std::fprintf(stderr, "bench_gate: baseline '%s': %s\n", path.c_str(),
                 (parsed.error().code + ": " + parsed.error().message).c_str());
    return false;
  }
  doc = std::move(parsed.value());
  return true;
}

/// Prints a structural check's verdict; returns its violation count.
int structural(const std::string& what,
               const std::vector<std::string>& violations,
               const std::string& detail) {
  if (violations.empty()) {
    std::printf("bench_gate: %-18s PASS (schema check, %s)\n", what.c_str(),
                detail.c_str());
    return 0;
  }
  std::printf("bench_gate: %-18s FAIL (schema check)\n", what.c_str());
  for (const auto& violation : violations) {
    std::printf("  %s\n", violation.c_str());
  }
  return static_cast<int>(violations.size());
}

/// Measures up to kAttempts fresh documents via `measure` (which returns
/// the fresh JSON, or empty on measurement failure) and compares each
/// against the baseline; the gate passes on the first clean attempt.
/// Returns the final attempt's violation count (0 = pass).
template <typename MeasureFn>
int gated(const std::string& what, const loadgen::BenchDoc& baseline,
          const std::vector<loadgen::GateRule>& rules, MeasureFn measure) {
  const loadgen::GateOptions options;
  std::vector<std::string> violations;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const std::string json = measure();
    if (json.empty()) return 1;  // measure() printed its own error
    auto fresh = loadgen::parse_bench_json(json);
    if (!fresh) {
      std::fprintf(stderr, "bench_gate: fresh %s document: %s\n",
                   what.c_str(),
                   (fresh.error().code + ": " + fresh.error().message)
                       .c_str());
      return 1;
    }
    violations =
        loadgen::gate_compare(baseline, fresh.value(), rules, options);
    if (violations.empty()) {
      std::printf("bench_gate: %-18s PASS (tolerance %.1fx, attempt %d/%d)\n",
                  what.c_str(), options.tolerance, attempt, kAttempts);
      for (const auto& rule : rules) {
        std::printf("  %-50s baseline %14.1f  fresh %14.1f\n",
                    rule.key.c_str(), baseline.number(rule.key, 0.0),
                    fresh.value().number(rule.key, 0.0));
      }
      return 0;
    }
    if (attempt < kAttempts) {
      std::printf("bench_gate: %-18s attempt %d/%d noisy, retrying:\n",
                  what.c_str(), attempt, kAttempts);
      for (const auto& violation : violations) {
        std::printf("  %s\n", violation.c_str());
      }
    }
  }
  std::printf("bench_gate: %-18s FAIL (all %d attempts)\n", what.c_str(),
              kAttempts);
  for (const auto& violation : violations) {
    std::printf("  %s\n", violation.c_str());
  }
  return static_cast<int>(violations.size());
}

/// Rewrites every BENCH_perf_<workload>.json from kRefreshSeconds runs.
int refresh() {
  for (const char* workload : kWorkloads) {
    const std::string json =
        measure_perf_doc(workload, kRefreshSeed, kRefreshSeconds);
    if (json.empty()) return 1;
    const std::string path = std::string("BENCH_perf_") + workload + ".json";
    if (auto written = pdcu::fs::replace_file(path, json); !written) {
      std::fprintf(stderr, "bench_gate: cannot write '%s': %s\n",
                   path.c_str(), written.error().message.c_str());
      return 1;
    }
    std::printf("bench_gate: wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--refresh") == 0) return refresh();
  if (argc != 1) return usage(argv[0]);

  int violations = 0;

  for (const char* workload : kWorkloads) {
    const std::string name = std::string("perf_") + workload;
    loadgen::BenchDoc baseline;
    if (!load_baseline("BENCH_" + name + ".json", baseline)) return 2;
    violations += structural(
        name, loadgen::perf_schema_violations(baseline, workload),
        "revision " + baseline.text("revision").substr(0, 12));
    const auto seed =
        static_cast<std::uint64_t>(baseline.number("seed", kRefreshSeed));
    violations += gated(name, baseline, loadgen::perf_gate_rules(workload),
                        [&] {
                          return measure_perf_doc(workload, seed,
                                                  kGateSeconds);
                        });
  }

  loadgen::BenchDoc scale;
  if (!load_baseline("BENCH_search_scale.json", scale)) return 2;
  // The committed document must carry both corpus sizes and its measured
  // >= 5x p99 speedup claim; the 10k section is then re-measured.
  char detail[96];
  std::snprintf(detail, sizeof detail, "%.1fx speedup at %d docs",
                scale.number("summary.speedup_p99", 0.0),
                static_cast<int>(scale.number("summary.largest_docs", 0.0)));
  violations += structural("search_scale",
                           loadgen::scale_schema_violations(scale), detail);
  violations += gated("search_scale", scale, loadgen::scale_gate_rules(), [] {
    return pdcu::benchjson::search_scale_summary_json("bench_gate",
                                                      {10'000});
  });

  loadgen::BenchDoc stencil;
  if (!load_baseline("BENCH_stencil.json", stencil)) return 2;
  std::snprintf(detail, sizeof detail,
                "%.2fx virtual speedup at 4 ranks, simd=%s",
                stencil.number("virtual.p4_speedup", 0.0),
                stencil.text("simd.dispatched").c_str());
  violations += structural(
      "stencil", loadgen::stencil_schema_violations(stencil), detail);

  loadgen::BenchDoc sweep;
  if (!load_baseline("BENCH_sweep_serve.json", sweep)) return 2;
  std::snprintf(detail, sizeof detail, "%d points",
                static_cast<int>(sweep.number("points", 0.0)));
  violations +=
      structural("sweep_serve", loadgen::sweep_schema_violations(sweep),
                 detail);

  return violations == 0 ? 0 : 1;
}
