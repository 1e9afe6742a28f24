// Stencil (Game of Life) benchmarks: host-kernel throughput for the
// serial, thread-tiled, autovectorized, and AVX2 kernels, plus the
// classroom halo-exchange run under the virtual-time cost model. The
// google-benchmark cases give per-kernel detail; the BENCH-schema summary
// at exit is the committed BENCH_stencil.json, whose parity, halo and
// speedup claims tools/bench_gate validates.
//
// Honesty notes: the tiled kernel steps its row blocks with the dispatched
// SIMD row kernel, so kernels.tiled_cells_per_s over the serial rate mixes
// the SIMD gain with the parallel one; only tiled over simd is the
// speedup of the tiling, and that is bounded by the cores the host really
// gives the pool. The AVX2 intrinsics are reported next to the compiler's
// autovectorized loop — kernels.simd_vs_autovec in the summary makes it
// visible when the compiler wins.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "bench_json.hpp"
#include "pdcu/activities/stencil.hpp"
#include "pdcu/runtime/thread_pool.hpp"

namespace act = pdcu::act;
namespace rt = pdcu::rt;

namespace {

constexpr std::size_t kWidth = 256;
constexpr std::size_t kHeight = 256;

const act::LifeGrid& soup() {
  static const act::LifeGrid kSoup = act::LifeGrid::random(kWidth, kHeight, 42);
  return kSoup;
}

void run_kernel(benchmark::State& state, act::LifeKernel kernel,
                rt::ThreadPool* pool = nullptr) {
  act::LifeGrid grid = soup();
  for (auto _ : state) {
    grid = act::life_step(grid, kernel, pool);
    benchmark::DoNotOptimize(grid.cells.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWidth * kHeight));
}

void BM_LifeSerial(benchmark::State& state) {
  run_kernel(state, act::LifeKernel::kSerial);
}
BENCHMARK(BM_LifeSerial)->Unit(benchmark::kMicrosecond);

void BM_LifeTiled(benchmark::State& state) {
  rt::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  run_kernel(state, act::LifeKernel::kTiled, &pool);
}
BENCHMARK(BM_LifeTiled)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_LifeAutovec(benchmark::State& state) {
  run_kernel(state, act::LifeKernel::kAutovec);
}
BENCHMARK(BM_LifeAutovec)->Unit(benchmark::kMicrosecond);

void BM_LifeSimdDispatched(benchmark::State& state) {
  state.SetLabel(std::string(act::kernel_name(act::best_simd_kernel())));
  run_kernel(state, act::best_simd_kernel());
}
BENCHMARK(BM_LifeSimdDispatched)->Unit(benchmark::kMicrosecond);

void BM_StencilClassroom(benchmark::State& state) {
  const act::LifeGrid start = act::LifeGrid::random(64, 64, 2024);
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = act::stencil_classroom(start, ranks, 5);
    benchmark::DoNotOptimize(result.cost.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 5);
}
BENCHMARK(BM_StencilClassroom)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The trajectory line, committed as BENCH_stencil.json.
  pdcu::benchjson::write_summary(
      pdcu::benchjson::stencil_summary_json("bench_stencil"));
  return 0;
}
