// Non-cryptographic hashing shared by the serving cache (ETags) and the
// search index (serialization checksums). FNV-1a is tiny, has published
// test vectors, and is stable across platforms, which is what an on-disk
// checksum needs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace pdcu::hash {

/// 64-bit FNV-1a over `bytes`.
std::uint64_t fnv1a_64(std::string_view bytes);

/// Streaming variant: folds `bytes` into a running FNV-1a state. Seed new
/// streams with kFnv1aInit.
inline constexpr std::uint64_t kFnv1aInit = 0xcbf29ce484222325ull;
std::uint64_t fnv1a_64_update(std::uint64_t state, std::string_view bytes);

/// Streaming FNV-1a over fields, each followed by a 0x1f separator, so
/// ("ab","c") and ("a","bc") fingerprint differently. Integers mix as
/// their bytes.
class Fingerprint {
 public:
  Fingerprint& mix(std::string_view bytes) {
    state_ = fnv1a_64_update(state_, bytes);
    state_ = (state_ ^ 0x1fu) * 0x100000001b3ull;
    return *this;
  }
  Fingerprint& mix(std::uint64_t value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    return mix(std::string_view(bytes, sizeof bytes));
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kFnv1aInit;
};

}  // namespace pdcu::hash
