// AVX2 Game of Life row kernel. This TU is compiled with -mavx2 when the
// toolchain and target support it (see src/activities/CMakeLists.txt); on
// other configurations it degrades to a stub that reports
// avx2_compiled() == false and is never dispatched.
#include "stencil_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace pdcu::act::detail {

namespace {

__m256i load(const std::uint8_t* at) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at));
}

/// Cells [c, c + 32) of the row. Reads columns c - 1 through c + 32.
/// Always inlined: GCC's -O2 otherwise calls it once per block, which
/// cost about 15% of the kernel's rate on 256-cell rows.
[[gnu::always_inline]] inline void life_block(const std::uint8_t* up,
                                              const std::uint8_t* mid,
                                              const std::uint8_t* down,
                                              std::uint8_t* out,
                                              std::size_t c) {
  // Sum the eight neighbour bytes; counts peak at 8, no saturation needed.
  __m256i count = _mm256_add_epi8(load(up + c - 1), load(up + c));
  count = _mm256_add_epi8(count, load(up + c + 1));
  count = _mm256_add_epi8(count, load(mid + c - 1));
  count = _mm256_add_epi8(count, load(mid + c + 1));
  count = _mm256_add_epi8(count, load(down + c - 1));
  count = _mm256_add_epi8(count, load(down + c));
  count = _mm256_add_epi8(count, load(down + c + 1));
  // Cells are 0 or 1: (count | alive) == 3 is "three, or two and alive".
  const __m256i born_or_kept = _mm256_cmpeq_epi8(
      _mm256_or_si256(count, load(mid + c)), _mm256_set1_epi8(3));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c),
                      _mm256_and_si256(born_or_kept, _mm256_set1_epi8(1)));
}

}  // namespace

bool avx2_compiled() { return true; }

void life_row_avx2(const std::uint8_t* up, const std::uint8_t* mid,
                   const std::uint8_t* down, std::uint8_t* out,
                   std::size_t w) {
  if (w < 34) {
    // Too narrow for even one unaligned 32-byte interior block.
    life_row_scalar(up, mid, down, out, w);
    return;
  }
  std::size_t c = 1;
  for (; c + 32 < w; c += 32) life_block(up, mid, down, out, c);
  // The interior cells left over, fewer than 32, go in one more block
  // that ends at column w - 2. It overlaps the previous block and writes
  // the shared cells again with the same bytes, which is safe because
  // `out` never aliases the input rows.
  if (c + 1 < w) life_block(up, mid, down, out, w - 33);
  life_wrap_columns(up, mid, down, out, w);
}

}  // namespace pdcu::act::detail

#else  // !defined(__AVX2__)

namespace pdcu::act::detail {

bool avx2_compiled() { return false; }

void life_row_avx2(const std::uint8_t* up, const std::uint8_t* mid,
                   const std::uint8_t* down, std::uint8_t* out,
                   std::size_t w) {
  // Unreachable through life_step (kernel_available gates dispatch), but
  // kept callable so direct users of the detail interface still get the
  // right answer.
  life_row_scalar(up, mid, down, out, w);
}

}  // namespace pdcu::act::detail

#endif
