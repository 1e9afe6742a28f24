#include "pdcu/search/serialize.hpp"

#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"
#include "little_endian.hpp"

namespace pdcu::search {

namespace {

constexpr std::string_view kMagic = "PDCUIDX\x01";  // 8 bytes
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;     // magic + version + hash

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

/// Verifies magic, version, and checksum; on success the payload (the
/// post-header bytes) is bytes.substr(kHeaderBytes).
Status check_header(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return Error::make("search.index.magic", "not a pdcu search index");
  }
  const auto version = load_le<std::uint32_t>(bytes.data() + kMagic.size());
  if (version != kIndexFormatVersion) {
    return Error::make("search.index.version",
                       "unsupported index version " + std::to_string(version) +
                           " (expected " +
                           std::to_string(kIndexFormatVersion) + ")");
  }
  const auto checksum =
      load_le<std::uint64_t>(bytes.data() + kMagic.size() + 4);
  if (hash::fnv1a_64(bytes.substr(kHeaderBytes)) != checksum) {
    return Error::make("search.index.checksum",
                       "index checksum mismatch (corrupted file?)");
  }
  return Status::ok();
}

}  // namespace

std::string serialize_index(const SearchIndex& index) {
  // The index already holds its canonical payload; persisting is just
  // prefixing the header.
  const std::string_view payload = index.payload();
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic);
  put_u32(out, kIndexFormatVersion);
  put_u64(out, hash::fnv1a_64(payload));
  out.append(payload);
  return out;
}

Expected<SearchIndex> deserialize_index(std::string_view bytes) {
  const Status header = check_header(bytes);
  if (!header) return header.error();
  return SearchIndex::from_payload(std::string(bytes.substr(kHeaderBytes)));
}

Status save_index(const SearchIndex& index,
                  const std::filesystem::path& path) {
  // Never truncate in place: a concurrent load_index sees either the old
  // or the new file, never a partial one.
  return fs::replace_file(path, serialize_index(index));
}

Expected<SearchIndex> load_index(const std::filesystem::path& path) {
  return fs::read_file(path).and_then(
      [](const std::string& bytes) { return deserialize_index(bytes); });
}

}  // namespace pdcu::search
