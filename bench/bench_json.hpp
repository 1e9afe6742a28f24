// Shared glue between the bench binaries and the repo's BENCH_*.json
// perf-trajectory files. The schema itself (writer + parser) lives in
// pdcu::loadgen (bench_json.hpp) so the load generator, these benches,
// and tools/bench_gate can never drift apart; this header adds the two
// pieces only bench-side code needs:
//
//   * write_summary(): emit the one-line JSON document to stdout, or to
//     $BENCH_JSON_OUT when set — which is how the committed baselines are
//     refreshed:  BENCH_JSON_OUT=BENCH_stencil.json ./bench/bench_stencil
//     --benchmark_filter='^$'
//
//   * search_scale_summary_json() and stencil_summary_json(): the
//     measurements behind BENCH_search_scale.json and BENCH_stencil.json.
//     bench_gate re-measures the first with the same code and validates
//     the second structurally.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/activities/stencil.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/schedule.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/server/query_cache.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::benchjson {

/// Writes one BENCH document to $BENCH_JSON_OUT (when set) or stdout.
inline void write_summary(const std::string& json) {
  const char* out_path = std::getenv("BENCH_JSON_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::FILE* file = std::fopen(out_path, "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_json: cannot write '%s'\n", out_path);
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::fprintf(stderr, "bench_json: wrote %s\n", out_path);
}

namespace detail {

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

}  // namespace detail

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
/// The committed BENCH_search_scale.json carries {10k, 100k}; bench_gate
/// re-measures {10k} only (a 100k corpus build is ~1 min of tokenization,
/// too slow for three gate attempts) and structurally validates the
/// committed 100k section — including the >= 5x p99 speedup claim — via
/// loadgen::scale_schema_violations.
inline std::string search_scale_summary_json(
    std::string_view source,
    const std::vector<std::size_t>& sizes = {10'000, 100'000}) {
  using SteadyClock = std::chrono::steady_clock;
  namespace corpus = search::corpus;

  loadgen::BenchWriter writer("search_scale", source);
  writer.integer("seed", 42);
  writer.integer("sizes", sizes.size());

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
      detail::Samples us;
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
    server::QueryCache cache(512);
    detail::Samples hit_us;
    detail::Samples miss_us;
    Rng rng(42);
    const loadgen::ZipfSampler query_zipf(queries.size(), 1.1);
    for (int request = 0; request < 2000; ++request) {
      const std::string& text = queries[query_zipf.sample(rng)];
      const auto start = SteadyClock::now();
      if (!cache.get(text).has_value()) {
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
    const detail::Samples& hit = hit_us;
    const detail::Samples& miss = miss_us;

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
    writer.integer("cache_hit_p50_us", hit.quantile(0.50));
    writer.integer("cache_hit_p99_us", hit.quantile(0.99));
    writer.integer("cache_miss_p50_us", miss.quantile(0.50));
    writer.integer("cache_miss_p99_us", miss.quantile(0.99));
    writer.close();
  }

  writer.open("summary");
  writer.integer("largest_docs", largest_size);
  writer.number("speedup_p99", largest_speedup);
  writer.close();
  return writer.finish();
}

/// The "stencil" trajectory document: Game of Life host-kernel
/// throughputs (cells/s, best of `reps` timed runs each), a bit-exact
/// parity sweep of every kernel against the serial oracle, and the
/// virtual-time speedup curve of the classroom halo-exchange run for
/// p in {1,2,4,8,16} with the analytic halo-message count checked.
///
/// The SIMD arm is reported honestly: `kernels.simd_cells_per_s` is
/// whatever runtime dispatch actually picked (`simd.dispatched` says
/// which), and `kernels.simd_vs_autovec` makes it visible when the
/// compiler's autovectorized loop beats the hand-written intrinsics.
/// bench_stencil emits this document on a 256x256 torus; bench_gate
/// validates the committed one structurally (loadgen::
/// stencil_schema_violations).
inline std::string stencil_summary_json(std::string_view source) {
  using SteadyClock = std::chrono::steady_clock;
  namespace act = pdcu::act;
  constexpr std::size_t width = 256;
  constexpr std::size_t height = 256;
  constexpr int generations = 48;
  constexpr int reps = 3;

  const act::LifeGrid start = act::LifeGrid::random(width, height, 42);
  std::uint64_t errors = 0;

  // Parity sweep: every kernel, several shapes (including AVX2 tail and
  // narrow-grid fallback widths), bit-compared against the serial oracle.
  std::uint64_t parity_checked = 0;
  std::uint64_t parity_mismatches = 0;
  {
    const std::size_t shapes[][2] = {{10, 10}, {33, 9}, {100, 17},
                                     {width, height}};
    for (const auto& shape : shapes) {
      const act::LifeGrid soup = act::LifeGrid::random(shape[0], shape[1], 7);
      const act::LifeGrid oracle =
          act::life_run(soup, 6, act::LifeKernel::kSerial);
      for (act::LifeKernel kernel :
           {act::LifeKernel::kTiled, act::LifeKernel::kAutovec,
            act::LifeKernel::kAvx2}) {
        ++parity_checked;
        if (act::life_run(soup, 6, kernel) != oracle) ++parity_mismatches;
      }
    }
  }

  // Host-kernel throughput, best of `reps` timed runs each. The final
  // grid's population is the observable sink.
  volatile std::size_t sink = 0;
  const auto cells_per_s = [&](act::LifeKernel kernel) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto begin = SteadyClock::now();
      const act::LifeGrid end = act::life_run(start, generations, kernel);
      const double seconds =
          std::chrono::duration<double>(SteadyClock::now() - begin).count();
      sink = sink + end.alive();
      if (seconds > 0.0) {
        const double rate = static_cast<double>(width * height) *
                            static_cast<double>(generations) / seconds;
        best = std::max(best, rate);
      }
    }
    return best;
  };
  const double serial_rate = cells_per_s(act::LifeKernel::kSerial);
  const double tiled_rate = cells_per_s(act::LifeKernel::kTiled);
  const double autovec_rate = cells_per_s(act::LifeKernel::kAutovec);
  const act::LifeKernel simd = act::best_simd_kernel();
  const double simd_rate =
      simd == act::LifeKernel::kAutovec ? autovec_rate : cells_per_s(simd);

  // Virtual-time speedup curve of the classroom decomposition, with the
  // halo-message count checked against the analytic 2 * p * generations.
  const act::LifeGrid vstart = act::LifeGrid::random(64, 64, 2024);
  const int vgens = 10;
  const act::LifeGrid voracle =
      act::life_run(vstart, vgens, act::LifeKernel::kSerial);
  std::uint64_t halo_mismatches = 0;
  std::vector<std::pair<int, double>> curve;
  for (int ranks : {1, 2, 4, 8, 16}) {
    const auto run = act::stencil_classroom(vstart, ranks, vgens);
    if (!run.ok() || run.grid != voracle) ++errors;
    if (run.halo_messages !=
        act::expected_halo_messages(run.ranks, run.generations)) {
      ++halo_mismatches;
    }
    curve.emplace_back(ranks, run.speedup_vs_serial);
  }

  loadgen::BenchWriter writer("stencil", source);
  writer.integer("width", width);
  writer.integer("height", height);
  writer.integer("generations", static_cast<std::uint64_t>(generations));
  writer.open("simd");
  writer.text("dispatched", act::kernel_name(simd));
  writer.integer("avx2_available",
                 act::kernel_available(act::LifeKernel::kAvx2) ? 1 : 0);
  writer.close();
  writer.open("kernels");
  writer.number("serial_cells_per_s", serial_rate);
  writer.number("tiled_cells_per_s", tiled_rate);
  writer.number("autovec_cells_per_s", autovec_rate);
  writer.number("simd_cells_per_s", simd_rate);
  writer.number("simd_vs_autovec",
                autovec_rate > 0.0 ? simd_rate / autovec_rate : 0.0);
  writer.close();
  writer.open("parity");
  writer.integer("checked", parity_checked);
  writer.integer("mismatches", parity_mismatches);
  writer.close();
  writer.open("virtual");
  for (const auto& [ranks, speedup] : curve) {
    writer.number("p" + std::to_string(ranks) + "_speedup", speedup);
  }
  writer.integer("halo_mismatches", halo_mismatches);
  writer.close();
  writer.open("errors");
  writer.integer("total", errors + parity_mismatches + halo_mismatches);
  writer.close();
  return writer.finish();
}

}  // namespace pdcu::benchjson
