// Internal interface between stencil.cpp and the row-kernel translation
// units. stencil_avx2.cpp is the only file compiled with -mavx2 (when the
// toolchain supports it), so the intrinsics never leak into code that a
// non-AVX2 host might execute before the runtime cpuid dispatch;
// stencil_autovec.cpp is compiled at -O3 in every build type.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdcu::act::detail {

/// One Life row: `out` from the row `mid` and its torus neighbours `up`
/// and `down`, all `w` cells wide. Every row kernel writes all `w` cells.
/// `out` must not overlap `up`, `mid` or `down`: a kernel may write a cell
/// twice (the AVX2 kernel's last block overlaps the one before it), and
/// reads its inputs after some outputs are written.
using RowKernel = void (*)(const std::uint8_t* up, const std::uint8_t* mid,
                           const std::uint8_t* down, std::uint8_t* out,
                           std::size_t w);

/// Columns 0 and w-1 of a row of `w >= 2` cells, the two whose
/// neighbours wrap around the torus, with explicit neighbour indices and
/// no branch. Cells are 0 or 1, so "three neighbours, or two and alive"
/// is `(count | alive) == 3`. Internal linkage on purpose: each kernel TU
/// compiles its own copy under its own flags, so the -mavx2 copy never
/// runs on a host without AVX2.
static inline void life_wrap_columns(const std::uint8_t* up,
                                     const std::uint8_t* mid,
                                     const std::uint8_t* down,
                                     std::uint8_t* out, std::size_t w) {
  const auto cell = [&](std::size_t left, std::size_t c, std::size_t right) {
    const unsigned count = up[left] + up[c] + up[right] + mid[left] +
                           mid[right] + down[left] + down[c] + down[right];
    out[c] = static_cast<std::uint8_t>((count | mid[c]) == 3);
  };
  cell(w - 1, 0, 1);
  cell(w - 2, w - 1, 0);
}

/// True when stencil_avx2.cpp was built with AVX2 code generation. The
/// runtime dispatch additionally requires cpuid to report AVX2.
bool avx2_compiled();

/// One Life row in AVX2 32-cell blocks, the last block overlapping the
/// one before it, plus the wrap columns; no branch per cell. Falls back to
/// the scalar kernel below 34 cells and in stubs built without AVX2
/// (never dispatched there, but must still link).
void life_row_avx2(const std::uint8_t* up, const std::uint8_t* mid,
                   const std::uint8_t* down, std::uint8_t* out,
                   std::size_t w);

/// Scalar reference row kernel (defined in stencil.cpp): the parity
/// oracle, and the narrow-row fallback of the other kernels.
void life_row_scalar(const std::uint8_t* up, const std::uint8_t* mid,
                     const std::uint8_t* down, std::uint8_t* out,
                     std::size_t w);

/// Branch-free byte row kernel the compiler autovectorizes
/// (stencil_autovec.cpp).
void life_row_autovec(const std::uint8_t* up, const std::uint8_t* mid,
                      const std::uint8_t* down, std::uint8_t* out,
                      std::size_t w);

}  // namespace pdcu::act::detail
