// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --list-metrics
//
// Prints the environment block as one JSON line, the sample count behind
// each counted metric and the values before host-speed scaling as another
// (see host_slowdown in bench.hpp), then, as the last line of standard
// output, the result: {"correct","attempted","failed","metrics"}. An
// untraced run reports the end-to-end metrics, a traced run the per-layer
// ones (see metrics.hpp).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"
#include "pdcu/runtime/thread_pool.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <browse|search_corpus|"
               "author_reload|stencil_lab> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  using perfbench::json_quote;
  std::string out = "{\"end_to_end\": [";
  for (std::size_t i = 0; i < perfbench::kEndToEnd.size(); ++i) {
    const auto& m = perfbench::kEndToEnd[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + json_quote(m.name) + ", \"unit\": " +
           json_quote(m.unit) + ", \"better\": " +
           json_quote(m.higher_is_better ? "higher" : "lower") + "}";
  }
  out += "], \"per_layer\": [";
  for (std::size_t i = 0; i < perfbench::kPerLayer.size(); ++i) {
    const auto& m = perfbench::kPerLayer[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + json_quote(m.name) + ", \"unit\": " +
           json_quote(m.unit) + ", \"moves\": " + json_quote(m.moves) +
           ", \"workload\": " + json_quote(m.workload) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

/// The reported metrics must be exactly the catalog's, each once, with the
/// catalog's unit, a finite value and, when `counted`, a sample count;
/// anything else is a benchmark bug.
template <typename Catalog>
bool matches_catalog(const Outcome& out, const Catalog& catalog,
                     bool counted) {
  if (out.metrics.size() != catalog.size()) {
    std::fprintf(stderr, "perfbench: %zu metrics reported, %zu expected\n",
                 out.metrics.size(), catalog.size());
    return false;
  }
  for (const auto& entry : catalog) {
    int seen = 0;
    for (const auto& metric : out.metrics) {
      if (metric.name != entry.name) continue;
      ++seen;
      if (metric.unit != entry.unit || !std::isfinite(metric.value) ||
          (counted && metric.samples == 0)) {
        std::fprintf(stderr, "perfbench: bad metric %s\n", metric.name.c_str());
        return false;
      }
    }
    if (seen != 1) {
      std::fprintf(stderr, "perfbench: metric %.*s reported %d times\n",
                   static_cast<int>(entry.name.size()), entry.name.data(),
                   seen);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_work";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_trace || !(config.seconds > 0.0)) return usage();

  Outcome (*run)(const RunConfig&) = nullptr;
  if (config.workload == "browse") run = perfbench::run_browse;
  if (config.workload == "search_corpus") run = perfbench::run_search_corpus;
  if (config.workload == "author_reload") run = perfbench::run_author_reload;
  if (config.workload == "stencil_lab") run = perfbench::run_stencil_lab;
  if (run == nullptr) return usage();

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  std::printf("%s\n", perfbench::env_json().c_str());
  std::fflush(stdout);
  // The shared pool's threads start before any workload pins itself to one
  // CPU (OneCpu), so site builds, index builds and reloads keep every CPU.
  pdcu::rt::default_pool();

  Outcome out;
  try {
    out = run(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 error.what());
    return 1;
  }
  if (config.trace) {
    out.add("error_ratio",
            out.attempted == 0 ? 0.0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted),
            "ratio");
  }
  const bool complete =
      config.trace ? matches_catalog(out, perfbench::kPerLayer, false)
                   : matches_catalog(out, perfbench::kEndToEnd, true);
  if (!complete || out.attempted == 0) return 1;
  for (const auto& error : out.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("%s\n",
              perfbench::details_json(out.metrics, out.uncorrected).c_str());
  std::printf("%s\n", perfbench::result_json(out.failed == 0, out.attempted,
                                             out.failed, out.metrics)
                          .c_str());
  return 0;
}
