// Internal interface between stencil.cpp and the AVX2 translation unit.
// stencil_avx2.cpp is the only file compiled with -mavx2 (when the
// toolchain supports it), so the intrinsics never leak into code that a
// non-AVX2 host might execute before the runtime cpuid dispatch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdcu::act::detail {

/// One Life row: `out` from the row `mid` and its torus neighbours `up`
/// and `down`, all `w` cells wide. Every row kernel writes all `w` cells.
using RowKernel = void (*)(const std::uint8_t* up, const std::uint8_t* mid,
                           const std::uint8_t* down, std::uint8_t* out,
                           std::size_t w);

/// True when stencil_avx2.cpp was built with AVX2 code generation. The
/// runtime dispatch additionally requires cpuid to report AVX2.
bool avx2_compiled();

/// One Life row with explicit neighbour-row pointers, AVX2 interior +
/// scalar wrap columns. Falls back to the scalar kernel in stubs built
/// without AVX2 (never dispatched there, but must still link).
void life_row_avx2(const std::uint8_t* up, const std::uint8_t* mid,
                   const std::uint8_t* down, std::uint8_t* out,
                   std::size_t w);

/// Scalar reference row kernel (defined in stencil.cpp), shared with the
/// AVX2 TU for wrap columns, tails, and the no-AVX2 stub.
void life_row_scalar(const std::uint8_t* up, const std::uint8_t* mid,
                     const std::uint8_t* down, std::uint8_t* out,
                     std::size_t w);

/// Branch-free byte row kernel the compiler autovectorizes (stencil.cpp).
void life_row_autovec(const std::uint8_t* up, const std::uint8_t* mid,
                      const std::uint8_t* down, std::uint8_t* out,
                      std::size_t w);

}  // namespace pdcu::act::detail
