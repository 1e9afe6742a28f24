// Filesystem helpers returning Expected instead of throwing.
#pragma once

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
/// open or memory-mapped keeps its bytes (the old inode lives on until it
/// lets go); any other reader sees either the old or the new content,
/// never a partial file. Parent directories are created as needed.
Status replace_file(const std::filesystem::path& path,
                    std::string_view content);

/// Non-recursive listing of regular files with the given extension
/// (e.g. ".md"), sorted by filename for deterministic iteration order.
Expected<std::vector<std::filesystem::path>> list_files(
    const std::filesystem::path& dir, const std::string& extension);

}  // namespace pdcu::fs
