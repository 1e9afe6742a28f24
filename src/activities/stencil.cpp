#include "pdcu/activities/stencil.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "pdcu/support/rng.hpp"
#include "stencil_kernels.hpp"

namespace pdcu::act {

std::size_t LifeGrid::alive() const {
  std::size_t n = 0;
  for (std::uint8_t cell : cells) n += cell;
  return n;
}

LifeGrid LifeGrid::random(std::size_t width, std::size_t height,
                          std::uint64_t seed, double density) {
  LifeGrid grid;
  grid.width = width;
  grid.height = height;
  grid.cells.resize(width * height);
  Rng rng(seed);
  for (auto& cell : grid.cells) {
    cell = rng.chance(density) ? 1 : 0;
  }
  return grid;
}

LifeGrid LifeGrid::parse(const std::vector<std::string>& rows) {
  LifeGrid grid;
  grid.height = rows.size();
  grid.width = rows.empty() ? 0 : rows.front().size();
  grid.cells.reserve(grid.width * grid.height);
  for (const auto& row : rows) {
    assert(row.size() == grid.width && "ragged LifeGrid::parse input");
    for (char ch : row) {
      grid.cells.push_back(ch == '#' ? 1 : 0);
    }
  }
  return grid;
}

namespace detail {

void life_row_scalar(const std::uint8_t* up, const std::uint8_t* mid,
                     const std::uint8_t* down, std::uint8_t* out,
                     std::size_t w) {
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t left = (c + w - 1) % w;
    const std::size_t right = (c + 1) % w;
    const int count = up[left] + up[c] + up[right] + mid[left] + mid[right] +
                      down[left] + down[c] + down[right];
    out[c] =
        static_cast<std::uint8_t>(count == 3 || (mid[c] != 0 && count == 2));
  }
}

namespace {

/// Steps rows [row_lo, row_hi) of the torus `src` into `dst` with the
/// given row kernel, wrapping the row neighbours modulo the full height.
void step_rows(const std::uint8_t* src, std::uint8_t* dst, std::size_t w,
               std::size_t h, std::size_t row_lo, std::size_t row_hi,
               RowKernel kernel) {
  for (std::size_t r = row_lo; r < row_hi; ++r) {
    const std::uint8_t* up = src + ((r + h - 1) % h) * w;
    const std::uint8_t* mid = src + r * w;
    const std::uint8_t* down = src + ((r + 1) % h) * w;
    kernel(up, mid, down, dst + r * w, w);
  }
}

}  // namespace

}  // namespace detail

std::string_view kernel_name(LifeKernel kernel) {
  switch (kernel) {
    case LifeKernel::kSerial:
      return "serial";
    case LifeKernel::kTiled:
      return "tiled";
    case LifeKernel::kAutovec:
      return "autovec";
    case LifeKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool kernel_available(LifeKernel kernel) {
  if (kernel != LifeKernel::kAvx2) return true;
#if defined(__x86_64__) || defined(__i386__)
  return detail::avx2_compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

LifeKernel best_simd_kernel() {
  return kernel_available(LifeKernel::kAvx2) ? LifeKernel::kAvx2
                                             : LifeKernel::kAutovec;
}

namespace {

/// The row kernel a LifeKernel steps its rows with.
detail::RowKernel row_kernel(LifeKernel kernel) {
  switch (kernel) {
    case LifeKernel::kSerial:
      return detail::life_row_scalar;
    case LifeKernel::kTiled:
      return row_kernel(best_simd_kernel());
    case LifeKernel::kAutovec:
      return detail::life_row_autovec;
    case LifeKernel::kAvx2:
      // Non-AVX2 host (or non-x86 build): fall back, still bit-identical.
      return kernel_available(LifeKernel::kAvx2) ? detail::life_row_avx2
                                                 : detail::life_row_autovec;
  }
  return detail::life_row_scalar;
}

/// One generation from `grid` into `next`, which must already have the
/// grid's shape; every cell of `next` is overwritten.
void step_into(const LifeGrid& grid, LifeGrid& next, LifeKernel kernel,
               rt::ThreadPool* pool) {
  const std::size_t w = grid.width;
  const std::size_t h = grid.height;
  if (w == 0 || h == 0) return;
  const std::uint8_t* src = grid.cells.data();
  std::uint8_t* dst = next.cells.data();
  const detail::RowKernel row = row_kernel(kernel);
  if (kernel != LifeKernel::kTiled) {
    detail::step_rows(src, dst, w, h, 0, h, row);
    return;
  }
  // Disjoint row blocks, one fork-join per generation: bit-identical to
  // kSerial at any pool size because every row kernel is.
  rt::ThreadPool& workers = pool != nullptr ? *pool : rt::default_pool();
  workers.parallel_for(0, h, [&](std::size_t lo, std::size_t hi) {
    detail::step_rows(src, dst, w, h, lo, hi, row);
  });
}

/// A grid of `grid`'s shape whose cells are all about to be overwritten:
/// sized, neither copied nor zero-filled.
LifeGrid same_shape(const LifeGrid& grid) {
  LifeGrid next;
  next.width = grid.width;
  next.height = grid.height;
  next.cells.resize(grid.cells.size());
  return next;
}

}  // namespace

LifeGrid life_step(const LifeGrid& grid, LifeKernel kernel,
                   rt::ThreadPool* pool) {
  LifeGrid next = same_shape(grid);
  step_into(grid, next, kernel, pool);
  return next;
}

LifeGrid life_run(LifeGrid grid, int generations, LifeKernel kernel,
                  rt::ThreadPool* pool) {
  // Double-buffered: each generation writes the other buffer, then the
  // two swap roles, so a run allocates one extra grid in total.
  LifeGrid next = same_shape(grid);
  for (int g = 0; g < generations; ++g) {
    step_into(grid, next, kernel, pool);
    std::swap(grid, next);
  }
  return grid;
}

namespace {

// Halo-exchange user tags (the reserved negative range belongs to the
// collectives now; activity traffic uses small non-negative tags).
constexpr int kTagToUp = 0;     ///< my top row, sent to my up neighbour
constexpr int kTagToDown = 1;   ///< my bottom row, sent to my down neighbour
constexpr int kTagCollect = 2;  ///< final block, sent to rank 0

std::vector<std::int64_t> row_payload(const std::uint8_t* row,
                                      std::size_t w) {
  return {row, row + w};
}

void fill_row(std::uint8_t* row, const std::vector<std::int64_t>& payload) {
  for (std::size_t c = 0; c < payload.size(); ++c) {
    row[c] = static_cast<std::uint8_t>(payload[c]);
  }
}

}  // namespace

std::int64_t expected_halo_messages(int ranks, int generations) {
  if (ranks <= 1) return 0;
  return 2ll * ranks * generations;
}

StencilResult stencil_classroom(const LifeGrid& start, int ranks,
                                int generations, rt::CostModel model,
                                rt::TraceLog* trace) {
  assert(ranks >= 1 && generations >= 0);
  StencilResult result;
  const std::size_t w = start.width;
  const std::size_t h = start.height;
  // A rank with no rows would have nothing to send and nothing to step;
  // clamp instead so the dramatization always casts every student.
  const int p = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(ranks), std::max<std::size_t>(h, 1)));
  result.ranks = p;
  result.generations = generations;
  result.grid = start;
  if (w == 0 || h == 0) return result;

  std::uint8_t* final_cells = result.grid.cells.data();
  // `next` is a buffer of its own, so any row kernel gives the same bytes;
  // the virtual-time cost below does not depend on which one runs.
  const detail::RowKernel row = row_kernel(best_simd_kernel());

  auto body = [&](rt::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const auto parties = static_cast<std::size_t>(comm.size());
    // Balanced contiguous row split: block r owns [r*h/p, (r+1)*h/p),
    // never empty for p <= h and ceil/floor mixed so 10 rows over 3
    // ranks come out 3/3/4.
    const std::size_t lo = rank * h / parties;
    const std::size_t hi = (rank + 1) * h / parties;
    const std::size_t rows = hi - lo;

    // Local block with one halo row above and one below.
    std::vector<std::uint8_t> block((rows + 2) * w);
    std::vector<std::uint8_t> next((rows + 2) * w);
    std::memcpy(block.data() + w, start.cells.data() + lo * w, rows * w);

    const int up = static_cast<int>((rank + parties - 1) % parties);
    const int down = static_cast<int>((rank + 1) % parties);
    if (trace != nullptr) {
      comm.log("owns torus rows " + std::to_string(lo) + ".." +
               std::to_string(hi) + " of " + std::to_string(h));
    }

    for (int gen = 0; gen < generations; ++gen) {
      if (parties > 1) {
        // Boundary rows out; matching halos in. With two ranks both
        // neighbours are the same peer, so the direction tag is what
        // keeps the two rows apart.
        comm.send(up, row_payload(block.data() + w, w), kTagToUp);
        comm.send(down, row_payload(block.data() + rows * w, w), kTagToDown);
        fill_row(block.data(), comm.recv(up, kTagToDown).payload);
        fill_row(block.data() + (rows + 1) * w,
                 comm.recv(down, kTagToUp).payload);
      } else {
        // One rank owns the whole torus: its halos are its own edges.
        std::memcpy(block.data(), block.data() + rows * w, w);
        std::memcpy(block.data() + (rows + 1) * w, block.data() + w, w);
      }
      // Step the owned rows; the halo rows provide the vertical
      // neighbours, so no row wrap is needed inside the block.
      for (std::size_t r = 1; r <= rows; ++r) {
        row(block.data() + (r - 1) * w, block.data() + r * w,
            block.data() + (r + 1) * w, next.data() + r * w, w);
      }
      comm.work(static_cast<std::int64_t>(rows * w));
      std::swap(block, next);
      comm.barrier();
    }

    // Collect the final blocks at rank 0.
    if (comm.rank() == 0) {
      std::memcpy(final_cells, block.data() + w, rows * w);
      for (int i = 0; i < static_cast<int>(parties) - 1; ++i) {
        rt::ClassMessage message = comm.recv(rt::kAny, kTagCollect);
        const auto src = static_cast<std::size_t>(message.src);
        const std::size_t src_lo = src * h / parties;
        for (std::size_t k = 0; k < message.payload.size(); ++k) {
          final_cells[src_lo * w + k] =
              static_cast<std::uint8_t>(message.payload[k]);
        }
      }
    } else {
      comm.send(0, {block.begin() + static_cast<long>(w),
                    block.begin() + static_cast<long>((rows + 1) * w)},
                kTagCollect);
    }
  };

  rt::ClassroomResult run = rt::Classroom::run(p, body, model, trace);
  result.cost = run.cost;
  result.error = run.error;
  result.halo_messages = run.cost.total_messages - (p - 1);
  result.speedup_vs_serial = run.cost.speedup_vs(
      static_cast<std::int64_t>(w * h) * generations * model.work_per_step);
  return result;
}

}  // namespace pdcu::act
