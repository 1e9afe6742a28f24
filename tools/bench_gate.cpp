// bench_gate — the perf-trajectory regression gate, and the one writer of
// the committed BENCH_*.json documents.
//
// The committed trajectory is perfbench's (perfbench/, BENCHMARK.json):
// one BENCH_perf_<workload>.json per workload, assembled by
// loadgen::perf_doc_json from an untraced and a traced `python3
// perfbench/run.py` run. Each committed document is checked structurally
// (loadgen::perf_schema_violations), then re-measured with the same
// function that wrote it — 4 s runs on the document's seed — and compared
// under loadgen::perf_gate_rules. BENCH_search_scale.json is written by
// search_scale_summary_json below; the gate checks its 100k claim
// structurally and re-measures its 10k section. Every document the gate
// checks, it also re-measures.
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
//   ./build/tools/bench_gate --refresh   # rewrite every BENCH_*.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "pdcu/activities/stencil.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/gate.hpp"
#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/server/query_cache.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/rng.hpp"
#include "pdcu/support/strings.hpp"

namespace loadgen = pdcu::loadgen;
namespace search = pdcu::search;

namespace {

constexpr const char* kWorkloads[] = {"browse", "search_corpus",
                                      "author_reload", "stencil_lab"};
/// Committed documents come from 25 s runs (BENCHMARK.json's run length)
/// on seed 1; the gate re-measures each with 4 s runs on the doc's seed.
constexpr double kRefreshSeconds = 25.0;
constexpr std::uint64_t kRefreshSeed = 1;
constexpr double kGateSeconds = 4.0;
constexpr int kAttempts = 3;
/// Corpus sizes of the committed BENCH_search_scale.json.
const std::vector<std::size_t> kScaleSizes = {10'000, 100'000};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--refresh]\n"
               "Run from the repo root. Without arguments, checks and\n"
               "re-measures the committed BENCH_*.json documents; with\n"
               "--refresh, rewrites BENCH_perf_<workload>.json from %g s\n"
               "perfbench runs and BENCH_search_scale.json at 10k and\n"
               "100k documents.\n",
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

/// A stamp of the source a document measures: FNV-1a over the path and
/// bytes of every tracked file under src/, perfbench/ and tools/, in path
/// order ("unknown" outside a git checkout). Unlike a commit name, it is
/// the same for a tree whether or not it was committed yet, so the gate
/// can tell whether a document was measured on the tree it checks.
std::string revision() {
  const std::string listed =
      capture("git ls-files -z -- src perfbench tools 2>/dev/null");
  if (listed.empty()) return "unknown";
  pdcu::hash::Fingerprint fp;
  std::size_t start = 0;
  for (std::size_t end = listed.find('\0'); end != std::string::npos;
       start = end + 1, end = listed.find('\0', start)) {
    const std::string path = listed.substr(start, end - start);
    fp.mix(path);
    // A tracked file deleted from the work tree mixes its path alone.
    if (const auto bytes = pdcu::fs::read_file(path)) fp.mix(bytes.value());
  }
  char stamp[40];
  std::snprintf(stamp, sizeof stamp, "source-fnv1a:%016llx",
                static_cast<unsigned long long>(fp.value()));
  return stamp;
}

/// A fixed amount of dependent integer work that touches no memory, so
/// its rate measures how much CPU a thread really gets.
std::uint64_t spin(std::uint64_t steps, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// How many CPUs' worth of work the host runs at once: n threads of spin
/// against one, as perfbench calibrates it.
double effective_parallelism() {
  constexpr std::uint64_t kSteps = 20'000'000;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<std::uint64_t> sink{0};
  const auto seconds = [&](unsigned threads) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&sink, t] { sink += spin(kSteps, t + 1); });
    }
    for (auto& worker : workers) worker.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double one = seconds(1);
  return static_cast<double>(n) * one / seconds(n);
}

/// The "env" block every perf document carries (perfbench's run.py writes
/// theirs), for the documents this binary measures itself: its compiler,
/// build type and flags, the CPU counts, the dispatched Life kernel, the
/// calibrated parallelism, and whether the first four match
/// perfbench/baseline_env.json.
std::string env_json() {
  const auto baseline =
      pdcu::fs::read_file("perfbench/baseline_env.json")
          .and_then(loadgen::parse_bench_json);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const bool comparable =
      baseline.has_value() &&
      baseline.value().text("compiler") == BENCH_GATE_COMPILER &&
      baseline.value().text("build_type") == BENCH_GATE_BUILD_TYPE &&
      baseline.value().text("flags") == BENCH_GATE_CXX_FLAGS &&
      baseline.value().number("nproc", -1.0) == static_cast<double>(nproc);
  const auto quoted = [](std::string_view text) {
    std::string out = "\"";
    pdcu::strings::json_escape_append(text, out);
    return out + "\"";
  };
  const auto kernel = pdcu::act::best_simd_kernel();
  char parallelism[32];
  std::snprintf(parallelism, sizeof parallelism, "%.17g",
                effective_parallelism());
  return "{\"env\": {\"compiler\": " + quoted(BENCH_GATE_COMPILER) +
         ", \"build_type\": " + quoted(BENCH_GATE_BUILD_TYPE) +
         ", \"flags\": " + quoted(BENCH_GATE_CXX_FLAGS) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_kernel\": " + quoted(pdcu::act::kernel_name(kernel)) +
         ", \"avx2_dispatched\": " +
         (kernel == pdcu::act::LifeKernel::kAvx2 ? "true" : "false") +
         ", \"effective_parallelism\": " + parallelism +
         ", \"comparable\": " + (comparable ? "true" : "false") + "}}";
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

/// Exact empirical order statistics for bench-size sample sets. The
/// obs::Histogram log buckets exist for lock-free capture on serving hot
/// paths; at bench scale (hundreds of samples) exact quantiles cost
/// nothing, and the committed speedup claims should not carry
/// bucket-interpolation error (a 1.3 ms p99 must not report as 2048 us).
struct Samples {
  std::vector<std::uint64_t> values;

  void record(std::uint64_t v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }

  double mean() const {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const std::uint64_t v : values) sum += static_cast<double>(v);
    return sum / static_cast<double>(values.size());
  }

  /// Nearest-rank quantile over a sorted copy.
  std::uint64_t quantile(double q) const {
    if (values.empty()) return 0;
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(pos + 0.5)];
  }
};

/// The "search_scale" trajectory document: for each synthetic corpus size,
/// exhaustive-vs-pruned (block-max WAND) ranking latency percentiles
/// measured in the SAME run over the SAME query set (so the per-size
/// speedup is apples to apples), plus an end-to-end pass (snippets on) and
/// a query-cache pass with the hit/miss latency split.
///
/// The ranking arms isolate what early termination changes: snippets are
/// off (a per-hit cost independent of corpus size, identical in both arms)
/// and taxonomy filters resolve through a warm FilterCache, as they do in
/// the server. The query mix models production traffic — hot single
/// terms, head+discriminative pairs, a three-term query, a filtered query.
/// One adversarial query (two head terms, no discriminative term, massive
/// list overlap) is reported separately as dense_pair_*: rank-safe DAAT
/// pruning cannot beat a linear scan when every candidate is a real
/// contender, and burying that case in a pooled percentile would
/// misrepresent both sides.
///
/// --refresh writes BENCH_search_scale.json at kScaleSizes; the gate
/// re-measures {10k} only (a 100k corpus build is ~1 min of tokenization,
/// too slow for three gate attempts) and structurally validates the
/// committed 100k section — including the >= 5x p99 speedup claim — via
/// loadgen::scale_schema_violations.
std::string search_scale_summary_json(const std::vector<std::size_t>& sizes) {
  using SteadyClock = std::chrono::steady_clock;
  namespace corpus = search::corpus;

  loadgen::BenchWriter writer("search_scale", "bench_gate");
  writer.integer("seed", 42);
  writer.integer("sizes", sizes.size());
  writer.text("revision", revision());
  writer.splice(env_json());

  // One deterministic query set for every size, built from fixed Zipf
  // vocabulary ranks so every list shape is represented: head ranks hit
  // posting lists covering most of the corpus, ranks in the hundreds are
  // discriminative terms.
  const auto rank = [](std::size_t r) { return corpus::term_at_rank(r); };
  std::vector<std::string> queries = {
      rank(7),
      rank(9),
      rank(11),
      rank(15),
      rank(8) + " " + rank(300),
      rank(10) + " " + rank(500),
      rank(12) + " " + rank(800),
      rank(7) + " " + rank(200) + " " + rank(600),
      rank(7) + " cs2013:PD_1",
  };
  const std::string dense_pair = rank(8) + " " + rank(9);

  double largest_speedup = 0.0;
  std::size_t largest_size = 0;
  volatile std::size_t sink = 0;  // keeps the measured calls observable
  for (const std::size_t docs : sizes) {
    const auto repo = corpus::synthetic_repository({docs, 42});

    const auto build_start = SteadyClock::now();
    const auto index = search::SearchIndex::build(repo);
    const std::chrono::duration<double, std::milli> build_elapsed =
        SteadyClock::now() - build_start;

    // One warm filter cache per corpus, as the server keeps per snapshot.
    search::FilterCache filter_cache;

    // Enough reps that the pooled p99 reflects the slowest query's steady
    // tail rather than scheduler jitter on a handful of samples.
    const int reps = docs <= 20'000 ? 120 : 60;

    const auto time_one = [&](const search::Query& query,
                              const search::SearchOptions& options) {
      const auto start = SteadyClock::now();
      sink = sink + index.search(query, &repo.index(), options).size();
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              SteadyClock::now() - start)
              .count());
    };
    const auto measure = [&](search::SearchOptions::Algo algo,
                             bool snippets) {
      Samples us;
      for (const auto& text : queries) {
        const auto query = search::parse_query(text);
        search::SearchOptions options;
        options.algo = algo;
        options.snippets = snippets;
        options.filter_cache = &filter_cache;
        for (int rep = 0; rep < reps; ++rep) {
          us.record(time_one(query, options));
        }
      }
      return us;
    };
    const auto exhaustive =
        measure(search::SearchOptions::Algo::kExhaustive, false);
    const auto maxscore =
        measure(search::SearchOptions::Algo::kMaxScore, false);
    const auto end_to_end =
        measure(search::SearchOptions::Algo::kMaxScore, true);

    // The adversarial dense pair, best-of-reps per arm.
    std::uint64_t dense_best[2] = {~0ull, ~0ull};
    {
      const auto query = search::parse_query(dense_pair);
      for (int algo = 0; algo < 2; ++algo) {
        search::SearchOptions options;
        options.algo = algo == 0 ? search::SearchOptions::Algo::kExhaustive
                                 : search::SearchOptions::Algo::kMaxScore;
        options.snippets = false;
        options.filter_cache = &filter_cache;
        for (int rep = 0; rep < reps; ++rep) {
          dense_best[algo] = std::min(dense_best[algo], time_one(query, options));
        }
      }
    }

    // Cache pass: a Zipf-distributed stream over the query set through the
    // server's QueryCache, miss = real MaxScore query + insert.
    pdcu::server::QueryCache cache(512);
    Samples hit_us;
    Samples miss_us;
    pdcu::Rng rng(42);
    const loadgen::ZipfSampler query_zipf(queries.size(), 1.1);
    for (int request = 0; request < 2000; ++request) {
      const std::string& text = queries[query_zipf.sample(rng)];
      const auto start = SteadyClock::now();
      if (cache.get(text) == nullptr) {
        const auto query = search::parse_query(text);
        const auto hits = index.search(query, &repo.index(), 10);
        cache.put(text, std::to_string(hits.size()));
        miss_us.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                SteadyClock::now() - start)
                .count()));
      } else {
        hit_us.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                SteadyClock::now() - start)
                .count()));
      }
    }

    const double speedup =
        maxscore.quantile(0.99) > 0
            ? static_cast<double>(exhaustive.quantile(0.99)) /
                  static_cast<double>(maxscore.quantile(0.99))
            : 0.0;
    if (docs >= largest_size) {
      largest_size = docs;
      largest_speedup = speedup;
    }

    writer.open("docs_" + std::to_string(docs));
    writer.integer("docs", docs);
    writer.number("build_ms", build_elapsed.count());
    writer.integer("index_terms", index.term_count());
    writer.integer("queries", exhaustive.count());
    writer.integer("exhaustive_p50_us", exhaustive.quantile(0.50));
    writer.integer("exhaustive_p99_us", exhaustive.quantile(0.99));
    writer.number("exhaustive_mean_us", exhaustive.mean());
    writer.integer("maxscore_p50_us", maxscore.quantile(0.50));
    writer.integer("maxscore_p99_us", maxscore.quantile(0.99));
    writer.number("maxscore_mean_us", maxscore.mean());
    writer.number("speedup_p99", speedup);
    writer.integer("end_to_end_p50_us", end_to_end.quantile(0.50));
    writer.integer("end_to_end_p99_us", end_to_end.quantile(0.99));
    writer.integer("dense_pair_exhaustive_us", dense_best[0]);
    writer.integer("dense_pair_pruned_us", dense_best[1]);
    writer.integer("cache_hits", cache.hits());
    writer.integer("cache_misses", cache.misses());
    writer.integer("cache_hit_p50_us", hit_us.quantile(0.50));
    writer.integer("cache_hit_p99_us", hit_us.quantile(0.99));
    writer.integer("cache_miss_p50_us", miss_us.quantile(0.50));
    writer.integer("cache_miss_p99_us", miss_us.quantile(0.99));
    writer.close();
  }

  writer.open("summary");
  writer.integer("largest_docs", largest_size);
  writer.number("speedup_p99", largest_speedup);
  writer.close();
  return writer.finish();
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

/// Replaces `path` with `json` atomically; false (after printing why) on
/// a measurement or write failure.
bool write_doc(const std::string& path, const std::string& json) {
  if (json.empty()) return false;  // the measurement printed its own error
  if (auto written = pdcu::fs::replace_file(path, json); !written) {
    std::fprintf(stderr, "bench_gate: cannot write '%s': %s\n",
                 path.c_str(), written.error().message.c_str());
    return false;
  }
  std::printf("bench_gate: wrote %s\n", path.c_str());
  return true;
}

/// Rewrites every BENCH_perf_<workload>.json from kRefreshSeconds runs,
/// and BENCH_search_scale.json at kScaleSizes.
int refresh() {
  for (const char* workload : kWorkloads) {
    if (!write_doc(std::string("BENCH_perf_") + workload + ".json",
                   measure_perf_doc(workload, kRefreshSeed,
                                    kRefreshSeconds))) {
      return 1;
    }
  }
  return write_doc("BENCH_search_scale.json",
                   search_scale_summary_json(kScaleSizes))
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--refresh") == 0) return refresh();
  if (argc != 1) return usage(argv[0]);

  int violations = 0;
  const std::string tree = revision();
  const auto measured_on = [&tree](const loadgen::BenchDoc& doc) {
    return doc.text("revision") == tree ? "measured on this tree"
                                        : "measured on another tree";
  };

  for (const char* workload : kWorkloads) {
    const std::string name = std::string("perf_") + workload;
    loadgen::BenchDoc baseline;
    if (!load_baseline("BENCH_" + name + ".json", baseline)) return 2;
    violations += structural(
        name, loadgen::perf_schema_violations(baseline, workload),
        measured_on(baseline));
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
  char detail[128];
  std::snprintf(detail, sizeof detail, "%.1fx speedup at %d docs, %s",
                scale.number("summary.speedup_p99", 0.0),
                static_cast<int>(scale.number("summary.largest_docs", 0.0)),
                measured_on(scale));
  violations += structural("search_scale",
                           loadgen::scale_schema_violations(scale), detail);
  violations += gated("search_scale", scale, loadgen::scale_gate_rules(),
                      [] { return search_scale_summary_json({10'000}); });

  return violations == 0 ? 0 : 1;
}
