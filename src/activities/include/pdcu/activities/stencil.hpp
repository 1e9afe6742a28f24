// ParallelStencilGameOfLife: Conway's Game of Life on a 2D torus, the
// repo's first compute-bound workload and the dramatization behind the
// proposed students-as-cells activity ("people act as processes", §III.A):
// every student is a cell, looks at eight neighbours, and flips their card
// simultaneously on the clap.
//
// Three honest host kernels (serial scalar, SIMD — an autovectorized byte
// kernel plus AVX2 intrinsics behind runtime cpuid dispatch — and
// ThreadPool row blocks stepped with the dispatched SIMD row kernel) are
// all bit-identical to the serial oracle on every grid, and
// a classroom run decomposes the torus into per-rank row blocks with
// per-generation halo exchange over rt::Comm under the virtual-time cost
// model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/runtime/classroom.hpp"
#include "pdcu/runtime/thread_pool.hpp"

namespace pdcu::act {

/// An allocator whose value-initialization default-initializes instead:
/// `resize(n)` of a byte vector allocates without zero-filling, for
/// buffers every kernel overwrites in full. Copies and other constructions
/// keep the std::allocator_traits default.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* ptr) {
    ::new (static_cast<void*>(ptr)) U;
  }
};

/// Row-major byte grid on a 2D torus; every cell is 0 (dead) or 1 (alive).
struct LifeGrid {
  std::size_t width = 0;
  std::size_t height = 0;
  /// width * height, row-major. resize() leaves new cells uninitialized.
  std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>> cells;

  std::uint8_t& at(std::size_t row, std::size_t col) {
    return cells[row * width + col];
  }
  std::uint8_t at(std::size_t row, std::size_t col) const {
    return cells[row * width + col];
  }

  std::size_t alive() const;
  bool operator==(const LifeGrid&) const = default;

  /// Deterministic random soup: pure function of (width, height, seed).
  static LifeGrid random(std::size_t width, std::size_t height,
                         std::uint64_t seed, double density = 0.35);

  /// Builds a grid from rows of '.' (dead) and '#' (alive); all rows must
  /// be the same length. Handy for oscillator tests.
  static LifeGrid parse(const std::vector<std::string>& rows);
};

/// The host kernels, compared honestly (the SIMD intrinsics do not always
/// beat the compiler's autovectorization; bench_stencil reports both).
enum class LifeKernel {
  kSerial,   ///< scalar reference oracle
  kTiled,    ///< rt::ThreadPool row blocks, each stepped with the
             ///< best_simd_kernel() row kernel; bit-identical at any pool
             ///< size
  kAutovec,  ///< branch-free byte kernel the compiler vectorizes
  kAvx2,     ///< hand-written AVX2 intrinsics (separate -mavx2 TU)
};

std::string_view kernel_name(LifeKernel kernel);

/// False only for kAvx2 on hosts without AVX2 (or non-x86 builds);
/// life_step falls back to kAutovec there so callers can always ask for
/// kAvx2 and still get a bit-identical answer.
bool kernel_available(LifeKernel kernel);

/// Runtime cpuid dispatch: kAvx2 when the host supports it, else kAutovec.
LifeKernel best_simd_kernel();

/// One generation of Life on the torus with the chosen kernel. `pool` is
/// used by kTiled only (nullptr = rt::default_pool()). Every kernel is
/// bit-identical to kSerial on every grid.
LifeGrid life_step(const LifeGrid& grid, LifeKernel kernel,
                   rt::ThreadPool* pool = nullptr);

/// `generations` steps of life_step.
LifeGrid life_run(LifeGrid grid, int generations, LifeKernel kernel,
                  rt::ThreadPool* pool = nullptr);

/// Result of the classroom dramatization.
struct StencilResult {
  LifeGrid grid;          ///< after `generations`, bit-identical to serial
  rt::RunCost cost;       ///< virtual-time cost of the parallel run
  int ranks = 0;          ///< ranks actually used (clamped to height)
  int generations = 0;
  std::int64_t halo_messages = 0;  ///< neighbor sends across the whole run
  double speedup_vs_serial = 0.0;  ///< virtual-time speedup over one rank
  std::string error;               ///< "" on success
  bool ok() const { return error.empty(); }
};

/// The analytic halo-message count a run must produce: every rank sends
/// its top and bottom boundary row every generation (2 * ranks *
/// generations), and none when a single rank owns the whole torus.
std::int64_t expected_halo_messages(int ranks, int generations);

/// Game of Life as a classroom run: the torus is decomposed into
/// contiguous row blocks (one per rank, ceil-split so non-divisible
/// heights work), and each generation every rank sends its boundary rows
/// to its torus neighbours, receives the matching halos, steps its block
/// with the best_simd_kernel() row kernel, and meets the class at a
/// barrier. Ranks above `height` would own no
/// rows, so the rank count is clamped to the height. The final grid is
/// gathered at rank 0 and is bit-identical to `generations` serial steps.
StencilResult stencil_classroom(const LifeGrid& start, int ranks,
                                int generations, rt::CostModel model = {},
                                rt::TraceLog* trace = nullptr);

}  // namespace pdcu::act
