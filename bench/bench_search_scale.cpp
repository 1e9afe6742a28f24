// Corpus-scale search benchmarks: exhaustive vs block-max MaxScore query
// latency on deterministic synthetic corpora. The google-benchmark timers
// give per-shape numbers; the trajectory document BENCH_search_scale.json
// is written and re-measured by tools/bench_gate.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"

namespace search = pdcu::search;
namespace corpus = pdcu::search::corpus;
namespace core = pdcu::core;

namespace {

struct Corpus {
  core::Repository repo;
  search::SearchIndex index;
};

/// Corpora are expensive to tokenize (a 100k build is ~1 min on one
/// core), so each size builds once and is shared across benchmarks.
const Corpus& corpus_of(std::size_t docs) {
  static std::vector<std::pair<std::size_t, Corpus>> cache;
  for (const auto& [size, built] : cache) {
    if (size == docs) return built;
  }
  auto repo = corpus::synthetic_repository({docs, 42});
  auto index = search::SearchIndex::build(repo);
  cache.push_back({docs, Corpus{std::move(repo), std::move(index)}});
  return cache.back().second;
}

void run_scale_query(benchmark::State& state, const char* input,
                     search::SearchOptions::Algo algo) {
  const auto& built = corpus_of(static_cast<std::size_t>(state.range(0)));
  const auto query = search::parse_query(input);
  search::SearchOptions options;
  options.algo = algo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        built.index.search(query, &built.repo.index(), options));
  }
  state.SetItemsProcessed(state.iterations());
}

// "parallel" and "processor" sit near the head of the Zipf vocabulary:
// their posting lists cover most of the corpus — the worst case for
// exhaustive scoring and the best showcase for block-max skipping.
void BM_ScaleHotExhaustive(benchmark::State& state) {
  run_scale_query(state, "parallel processor",
                  search::SearchOptions::Algo::kExhaustive);
}
BENCHMARK(BM_ScaleHotExhaustive)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleHotMaxScore(benchmark::State& state) {
  run_scale_query(state, "parallel processor",
                  search::SearchOptions::Algo::kMaxScore);
}
BENCHMARK(BM_ScaleHotMaxScore)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleRareMaxScore(benchmark::State& state) {
  run_scale_query(state, "gustafson",
                  search::SearchOptions::Algo::kMaxScore);
}
BENCHMARK(BM_ScaleRareMaxScore)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ScaleIndexBuild(benchmark::State& state) {
  const auto repo = corpus::synthetic_repository(
      {static_cast<std::size_t>(state.range(0)), 42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(search::SearchIndex::build(repo));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScaleIndexBuild)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
