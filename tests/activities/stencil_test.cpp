#include "pdcu/activities/stencil.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace act = pdcu::act;
namespace rt = pdcu::rt;

using act::LifeGrid;
using act::LifeKernel;

namespace {

const std::vector<LifeKernel> kAllKernels = {
    LifeKernel::kSerial, LifeKernel::kTiled, LifeKernel::kAutovec,
    LifeKernel::kAvx2};

/// Brute-force Life on the torus, independent of every library kernel:
/// each cell counts its eight neighbours through at() with explicit
/// modulo wraps.
LifeGrid brute_force_run(LifeGrid grid, int generations) {
  const std::size_t w = grid.width;
  const std::size_t h = grid.height;
  for (int g = 0; g < generations; ++g) {
    LifeGrid next = grid;
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        // Signed offsets wrapped by explicit modulo; on a grid one or two
        // cells wide, distinct offsets alias one cell and count twice.
        int count = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            if (dr == 0 && dc == 0) continue;
            count += grid.at((r + h + dr) % h, (c + w + dc) % w);
          }
        }
        next.at(r, c) = (count == 3 || (grid.at(r, c) != 0 && count == 2))
                            ? 1
                            : 0;
      }
    }
    grid = std::move(next);
  }
  return grid;
}

/// Allocates and frees two byte buffers of `bytes` filled with a value no
/// Life cell can hold, so the next two same-size allocations (the run's
/// two grids) likely reuse them: a kernel that leaves a cell unwritten
/// then shows a stray byte instead of a plausible 0 or 1.
void poison_heap(std::size_t bytes) {
  auto first = std::make_unique<std::uint8_t[]>(bytes);
  auto second = std::make_unique<std::uint8_t[]>(bytes);
  std::fill_n(first.get(), bytes, std::uint8_t{0xA5});
  std::fill_n(second.get(), bytes, std::uint8_t{0xA5});
  // The compiler must assume the fills are read, so it keeps them.
  asm volatile("" : : "r"(first.get()), "r"(second.get()) : "memory");
}

}  // namespace

TEST(LifeGridTest, ParseAndAlive) {
  const LifeGrid grid = LifeGrid::parse({".#.", "..#", "###"});
  EXPECT_EQ(grid.width, 3u);
  EXPECT_EQ(grid.height, 3u);
  EXPECT_EQ(grid.alive(), 5u);
  EXPECT_EQ(grid.at(0, 1), 1);
  EXPECT_EQ(grid.at(1, 0), 0);
}

TEST(LifeGridTest, RandomIsDeterministic) {
  const LifeGrid a = LifeGrid::random(16, 16, 42);
  const LifeGrid b = LifeGrid::random(16, 16, 42);
  const LifeGrid c = LifeGrid::random(16, 16, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.alive(), 0u);
  EXPECT_LT(a.alive(), 16u * 16u);
}

TEST(LifeStepTest, BlinkerOscillatesWithPeriodTwo) {
  const LifeGrid horizontal =
      LifeGrid::parse({".....", ".....", ".###.", ".....", "....."});
  const LifeGrid vertical =
      LifeGrid::parse({".....", "..#..", "..#..", "..#..", "....."});
  for (LifeKernel kernel : kAllKernels) {
    SCOPED_TRACE(act::kernel_name(kernel));
    const LifeGrid once = act::life_step(horizontal, kernel);
    EXPECT_EQ(once, vertical);
    EXPECT_EQ(act::life_step(once, kernel), horizontal);
  }
}

TEST(LifeStepTest, BlockIsAStillLife) {
  const LifeGrid block = LifeGrid::parse({"....", ".##.", ".##.", "...."});
  for (LifeKernel kernel : kAllKernels) {
    SCOPED_TRACE(act::kernel_name(kernel));
    EXPECT_EQ(act::life_step(block, kernel), block);
  }
}

TEST(LifeStepTest, GliderWrapsAroundTheTorus) {
  // On a torus a glider returns to its starting cells after traversing
  // the whole grid: one diagonal step per 4 generations, so 4 * size
  // generations on a square grid.
  const LifeGrid glider = LifeGrid::parse({
      ".#......",
      "..#.....",
      "###.....",
      "........",
      "........",
      "........",
      "........",
      "........",
  });
  const LifeGrid after = act::life_run(glider, 4 * 8, LifeKernel::kSerial);
  EXPECT_EQ(after, glider);
}

// The kernels' honesty claim: every kernel produces the same bytes as
// the scalar oracle on every grid shape, including widths that exercise
// the AVX2 interior blocks, the overlapping last block (2048 wide: 30
// interior cells left after the full blocks), and the narrow-grid scalar
// fallback.
TEST(LifeKernelParityTest, AllKernelsMatchSerialOracle) {
  const std::size_t shapes[][2] = {{1, 1},   {2, 2},   {3, 5},
                                   {7, 4},   {10, 10}, {33, 9},
                                   {34, 3},  {64, 16}, {100, 17},
                                   {2048, 3}};
  for (const auto& shape : shapes) {
    const LifeGrid start = LifeGrid::random(shape[0], shape[1],
                                            /*seed=*/shape[0] * 131 + shape[1]);
    const LifeGrid oracle = act::life_run(start, 8, LifeKernel::kSerial);
    for (LifeKernel kernel :
         {LifeKernel::kTiled, LifeKernel::kAutovec, LifeKernel::kAvx2}) {
      SCOPED_TRACE(std::string(act::kernel_name(kernel)) + " " +
                   std::to_string(shape[0]) + "x" + std::to_string(shape[1]));
      EXPECT_EQ(act::life_run(start, 8, kernel), oracle);
    }
  }
}

// Every kernel against the brute-force oracle, through life_run's two
// unfilled buffers: widths straddle the AVX2 narrow-grid fallback (< 34),
// its 32-byte blocks, the overlapping last block (interiors of 64, 96 and
// 128 cells need none, 65 and 95 do), and the wrap columns; heights run
// below the pool sizes so some workers get no rows.
TEST(LifeKernelParityTest, EveryKernelMatchesBruteForceOracle) {
  constexpr int kGenerations = 8;
  std::vector<std::unique_ptr<rt::ThreadPool>> pools;
  for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    pools.push_back(std::make_unique<rt::ThreadPool>(workers));
  }
  for (std::size_t width :
       {1u, 2u, 3u, 33u, 34u, 35u, 65u, 66u, 67u, 97u, 98u, 100u, 130u}) {
    for (std::size_t height : {1u, 2u, 3u, 6u, 17u}) {
      const LifeGrid start =
          LifeGrid::random(width, height, /*seed=*/width * 977 + height);
      const LifeGrid oracle = brute_force_run(start, kGenerations);
      const std::string shape =
          std::to_string(width) + "x" + std::to_string(height);
      for (LifeKernel kernel : kAllKernels) {
        SCOPED_TRACE(std::string(act::kernel_name(kernel)) + " " + shape);
        poison_heap(width * height);
        EXPECT_EQ(act::life_run(start, kGenerations, kernel), oracle);
      }
      for (const auto& pool : pools) {
        SCOPED_TRACE("tiled " + shape + " on " +
                     std::to_string(pool->size()) + " workers");
        poison_heap(width * height);
        EXPECT_EQ(
            act::life_run(start, kGenerations, LifeKernel::kTiled, pool.get()),
            oracle);
      }
    }
  }
}

TEST(LifeKernelParityTest, TiledIsBitIdenticalAtAnyPoolSize) {
  const LifeGrid start = LifeGrid::random(40, 23, 7);
  const LifeGrid oracle = act::life_run(start, 6, LifeKernel::kSerial);
  for (std::size_t workers : {1u, 2u, 3u, 8u}) {
    rt::ThreadPool pool(workers);
    EXPECT_EQ(act::life_run(start, 6, LifeKernel::kTiled, &pool), oracle)
        << workers << " workers";
  }
}

TEST(LifeKernelTest, NamesAndAvailability) {
  EXPECT_EQ(act::kernel_name(LifeKernel::kSerial), "serial");
  EXPECT_EQ(act::kernel_name(LifeKernel::kTiled), "tiled");
  EXPECT_EQ(act::kernel_name(LifeKernel::kAutovec), "autovec");
  EXPECT_EQ(act::kernel_name(LifeKernel::kAvx2), "avx2");
  EXPECT_TRUE(act::kernel_available(LifeKernel::kSerial));
  EXPECT_TRUE(act::kernel_available(LifeKernel::kTiled));
  EXPECT_TRUE(act::kernel_available(LifeKernel::kAutovec));
  // kAvx2 may or may not be available; best_simd_kernel must agree.
  if (act::kernel_available(LifeKernel::kAvx2)) {
    EXPECT_EQ(act::best_simd_kernel(), LifeKernel::kAvx2);
  } else {
    EXPECT_EQ(act::best_simd_kernel(), LifeKernel::kAutovec);
  }
}

TEST(StencilClassroomTest, MatchesSerialOracleForEveryRankCount) {
  // The ranks step their rows with the SIMD row kernel: 20 cells is its
  // narrow-row fallback, 34 one exact 32-cell interior block, and 67
  // needs the overlapping last block.
  for (std::size_t width : {20u, 34u, 67u}) {
    const LifeGrid start = LifeGrid::random(width, 16, 99);
    const int generations = 5;
    const LifeGrid oracle = act::life_run(start, generations,
                                          LifeKernel::kSerial);
    for (int ranks : {1, 2, 3, 4, 8, 16}) {
      SCOPED_TRACE(std::to_string(width) + " wide, " +
                   std::to_string(ranks) + " ranks");
      auto r = act::stencil_classroom(start, ranks, generations);
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.ranks, ranks);
      EXPECT_EQ(r.grid, oracle);
      EXPECT_EQ(r.halo_messages,
                act::expected_halo_messages(ranks, generations));
    }
  }
}

TEST(StencilClassroomTest, NonDivisibleGridOverThreeRanks) {
  // 10 rows over 3 ranks: blocks of 3/3/4 — the uneven-split path.
  const LifeGrid start = LifeGrid::random(10, 10, 5);
  const LifeGrid oracle = act::life_run(start, 7, LifeKernel::kSerial);
  auto r = act::stencil_classroom(start, 3, 7);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.grid, oracle);
  EXPECT_EQ(r.halo_messages, act::expected_halo_messages(3, 7));
}

TEST(StencilClassroomTest, RanksAreClampedToHeight) {
  const LifeGrid start = LifeGrid::random(12, 4, 11);
  const LifeGrid oracle = act::life_run(start, 3, LifeKernel::kSerial);
  auto r = act::stencil_classroom(start, 16, 3);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.ranks, 4);
  EXPECT_EQ(r.grid, oracle);
  EXPECT_EQ(r.halo_messages, act::expected_halo_messages(4, 3));
}

TEST(StencilClassroomTest, ZeroGenerationsReturnsTheStartGrid) {
  const LifeGrid start = LifeGrid::random(8, 8, 1);
  auto r = act::stencil_classroom(start, 4, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.grid, start);
  EXPECT_EQ(r.halo_messages, 0);
}

TEST(StencilClassroomTest, VirtualTimeSpeedupGrowsThenFlattens) {
  // Surface-to-volume: on a 32x32 torus the per-rank work shrinks with p
  // while the halo cost per generation stays fixed, so the virtual-time
  // makespan must strictly improve from 1 to 4 ranks.
  const LifeGrid start = LifeGrid::random(32, 32, 2024);
  auto p1 = act::stencil_classroom(start, 1, 10);
  auto p4 = act::stencil_classroom(start, 4, 10);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p4.ok());
  EXPECT_LT(p4.cost.makespan, p1.cost.makespan);
  EXPECT_GT(p4.speedup_vs_serial, p1.speedup_vs_serial);
  EXPECT_GT(p4.speedup_vs_serial, 1.5);
}

// Determinism property suite: thread interleaving must never leak into
// the results. Each configuration runs K times and every run must agree
// byte-for-byte on the grid and exactly on the virtual-time accounting.
TEST(StencilDeterminismTest, RepeatedRunsAreIdentical) {
  const LifeGrid start = LifeGrid::random(10, 10, 77);
  auto first = act::stencil_classroom(start, 3, 6);
  ASSERT_TRUE(first.ok()) << first.error;
  for (int run = 0; run < 5; ++run) {
    auto again = act::stencil_classroom(start, 3, 6);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(again.grid, first.grid);
    EXPECT_EQ(again.cost.makespan, first.cost.makespan);
    EXPECT_EQ(again.cost.total_work, first.cost.total_work);
    EXPECT_EQ(again.cost.total_messages, first.cost.total_messages);
    EXPECT_EQ(again.cost.total_items, first.cost.total_items);
    EXPECT_EQ(again.halo_messages, first.halo_messages);
  }
}

TEST(StencilDeterminismTest, CollectiveBodyIsDeterministicWithUnevenChunks) {
  // Pins scatter's uneven-chunk path (100 cells over 3 ranks) alongside
  // the sequence-tagged collectives: scatter the grid, reduce the live
  // count at alternating roots, and check clocks and results never vary
  // with the interleaving.
  const LifeGrid start = LifeGrid::random(10, 10, 123);
  const auto expected_alive = static_cast<std::int64_t>(start.alive());

  auto run_once = [&]() {
    std::vector<std::int64_t> cells(start.cells.begin(), start.cells.end());
    std::vector<std::int64_t> roots(2, -1);
    std::vector<std::int64_t> everywhere(3, -1);
    auto result = rt::Classroom::run(3, [&](rt::Comm& comm) {
      auto mine = comm.scatter(0, cells);
      std::int64_t local = 0;
      for (auto v : mine) local += v;
      auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
      // Back-to-back reduces with different roots: the cross-match bug's
      // home turf.
      std::int64_t at0 = comm.reduce(0, local, plus);
      std::int64_t at1 = comm.reduce(1, local, plus);
      if (comm.rank() == 0) roots[0] = at0;
      if (comm.rank() == 1) roots[1] = at1;
      everywhere[static_cast<std::size_t>(comm.rank())] =
          comm.allreduce(local, plus);
    });
    EXPECT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(roots[0], expected_alive);
    EXPECT_EQ(roots[1], expected_alive);
    for (auto v : everywhere) EXPECT_EQ(v, expected_alive);
    return result;
  };

  auto first = run_once();
  for (int run = 0; run < 5; ++run) {
    auto again = run_once();
    EXPECT_EQ(again.final_clocks, first.final_clocks);
    EXPECT_EQ(again.cost.makespan, first.cost.makespan);
    EXPECT_EQ(again.cost.total_work, first.cost.total_work);
    EXPECT_EQ(again.cost.total_messages, first.cost.total_messages);
    EXPECT_EQ(again.cost.total_items, first.cost.total_items);
  }
}

TEST(StencilTraceTest, TraceRecordsOwnership) {
  pdcu::rt::TraceLog trace;
  const LifeGrid start = LifeGrid::random(8, 8, 3);
  auto r = act::stencil_classroom(start, 2, 1, {}, &trace);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& event : trace.events()) {
    if (event.text.find("owns torus rows") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}
