// The compiler-vectorized Game of Life row kernel. This TU is compiled at
// -O3 in every build type (see src/activities/CMakeLists.txt): GCC's -O2
// leaves this loop scalar, and the kernel is both the non-AVX2 fallback and
// the baseline the AVX2 intrinsics are measured against.
#include "stencil_kernels.hpp"

namespace pdcu::act::detail {

void life_row_autovec(const std::uint8_t* up, const std::uint8_t* mid,
                      const std::uint8_t* down, std::uint8_t* out,
                      std::size_t w) {
  if (w < 3) {
    life_row_scalar(up, mid, down, out, w);
    return;
  }
  // Interior columns: straight-line byte arithmetic with no wraps or
  // branches — exactly the loop shape compilers autovectorize. Neighbour
  // counts peak at 8, far below the byte ceiling.
  for (std::size_t c = 1; c + 1 < w; ++c) {
    const std::uint8_t count =
        static_cast<std::uint8_t>(up[c - 1] + up[c] + up[c + 1] + mid[c - 1] +
                                  mid[c + 1] + down[c - 1] + down[c] +
                                  down[c + 1]);
    out[c] = static_cast<std::uint8_t>((count | mid[c]) == 3);
  }
  life_wrap_columns(up, mid, down, out, w);
}

}  // namespace pdcu::act::detail
