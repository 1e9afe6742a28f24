// Little-endian integer loads for the packed index format (serialize.hpp):
// one unaligned word load per field rather than a byte-at-a-time loop, with
// a byte swap on big-endian hosts so the format reads the same everywhere.
// Shared by the payload decoder (index.cpp) and the file header
// (serialize.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace pdcu::search {

/// The unsigned integer of type T stored little-endian at `p`.
template <typename T>
T load_le(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof value);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof value == 2) value = __builtin_bswap16(value);
    if constexpr (sizeof value == 4) value = __builtin_bswap32(value);
    if constexpr (sizeof value == 8) value = __builtin_bswap64(value);
  }
  return value;
}

}  // namespace pdcu::search
