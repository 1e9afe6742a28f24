// Binary index persistence: `pdcu index FILE` writes an index file and
// `pdcu search --index FILE` answers from it. The format is a fixed header
// (magic, version, FNV-1a checksum of the payload) followed by
// length-prefixed little-endian records; load verifies all three before
// parsing and bounds-checks every read, so a truncated or corrupted file is
// an Error, never undefined behavior.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "pdcu/search/index.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::search {

/// Current on-disk format version; bumped on any layout change.
inline constexpr std::uint32_t kIndexFormatVersion = 1;

/// Serializes the index to its binary form (header + payload).
std::string serialize_index(const SearchIndex& index);

/// Parses a serialized index, verifying magic, version, and checksum.
Expected<SearchIndex> deserialize_index(std::string_view bytes);

/// Writes the serialized index to `path` (creating parent directories).
Status save_index(const SearchIndex& index, const std::filesystem::path& path);

/// Reads and deserializes an index file. The payload is copied to the
/// heap, so the index outlives any later change to the file.
Expected<SearchIndex> load_index(const std::filesystem::path& path);

}  // namespace pdcu::search
