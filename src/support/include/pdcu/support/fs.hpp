// Filesystem helpers returning Expected instead of throwing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/support/expected.hpp"

namespace pdcu::fs {

/// Reads a whole file into a string.
Expected<std::string> read_file(const std::filesystem::path& path);

/// Writes (creating parent directories as needed), replacing any prior file.
Status write_file(const std::filesystem::path& path,
                  const std::string& content);

/// Replaces `path` atomically: writes a temporary file next to it,
/// fsyncs it, and renames it over `path`. A reader that has the old file
/// open keeps its bytes (the old inode lives on until it lets go); any
/// other reader sees either the old or the new content, never a partial
/// file. Parent directories are created as needed.
Status replace_file(const std::filesystem::path& path,
                    std::string_view content);

/// One listed file with the (size, mtime) stamp of the stat that listed it.
struct StampedFile {
  std::filesystem::path path;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  bool stat_ok = false;  ///< false when the stat failed (e.g. a symlink loop)
};

/// Non-recursive listing of the regular files (symlinks followed) whose
/// extension, as path::extension() reads it, is `extension` (e.g. ".md"),
/// sorted by filename for deterministic iteration order. One directory
/// read and one stat per matching entry; that stat is the stamp. An entry
/// that is gone by its stat (or a dangling symlink) is not listed; one
/// whose stat fails otherwise is listed unstamped, so whoever reads it
/// meets the error. Error only when the directory itself cannot be read.
Expected<std::vector<StampedFile>> list_stamped(
    const std::filesystem::path& dir, const std::string& extension);

}  // namespace pdcu::fs
