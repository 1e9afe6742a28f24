#include "pdcu/support/fs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "pdcu/support/fault.hpp"

namespace pdcu::fs {

namespace {

/// Consults the installed FaultInjector (if any) for `path`. Sleeps any
/// injected latency here so callers see it as slow I/O; returns the action
/// for the caller to translate into its own error codes.
FaultInjector::Action intercept(const std::filesystem::path& path) {
  FaultInjector* injector = installed_fault_injector();
  if (injector == nullptr) return FaultInjector::Action{};
  FaultInjector::Action action = injector->intercept(path);
  if (action.fired && action.latency.count() > 0) {
    std::this_thread::sleep_for(action.latency);
  }
  return action;
}

/// path::extension() of a bare filename: from its last '.', unless that
/// dot starts the name (".md" and ".." have no extension).
std::string_view extension_of(std::string_view name) {
  if (name == "..") return {};
  const std::size_t dot = name.rfind('.');
  if (dot == std::string_view::npos || dot == 0) return {};
  return name.substr(dot);
}

}  // namespace

Expected<std::string> read_file(const std::filesystem::path& path) {
  const FaultInjector::Action action = intercept(path);
  if (action.fault() && action.mode == FaultInjector::Mode::kOpenError) {
    return Error::make("fs.open",
                       "cannot open '" + path.string() + "' (injected fault)");
  }
  if (action.fault() && action.mode == FaultInjector::Mode::kIoError) {
    return Error::make("fs.read",
                       "read error on '" + path.string() + "' (injected fault)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error::make("fs.open", "cannot open '" + path.string() + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Error::make("fs.read", "read error on '" + path.string() + "'");
  }
  std::string content = buf.str();
  if (action.fault() && action.mode == FaultInjector::Mode::kTruncate &&
      content.size() > action.truncate_to) {
    content.resize(action.truncate_to);
  }
  return content;
}

Status write_file(const std::filesystem::path& path,
                  const std::string& content) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      return Error::make("fs.mkdir", "cannot create directories for '" +
                                         path.string() + "': " + ec.message());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Error::make("fs.open", "cannot open '" + path.string() +
                                      "' for writing");
  }
  out << content;
  out.flush();
  if (!out) {
    return Error::make("fs.write", "write error on '" + path.string() + "'");
  }
  return Status::ok();
}

Status replace_file(const std::filesystem::path& path,
                    std::string_view content) {
  // A per-process, per-call temporary name in the same directory, so the
  // rename never crosses filesystems and concurrent writers never share a
  // temporary.
  static std::atomic<std::uint64_t> sequence{0};
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) {
      return Error::make("fs.mkdir", "cannot create directories for '" +
                                         path.string() + "': " + ec.message());
    }
  }
  std::filesystem::path temp = path;
  temp += ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Error::make("fs.open", "cannot open '" + temp.string() +
                                      "' for writing: " +
                                      std::strerror(errno));
  }
  const auto fail = [&](const char* code, const std::string& what) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    ::unlink(temp.c_str());
    return Error::make(code, what + ": " + reason);
  };
  while (!content.empty()) {
    const ssize_t n = ::write(fd, content.data(), content.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("fs.write", "write error on '" + temp.string() + "'");
    }
    content.remove_prefix(static_cast<std::size_t>(n));
  }
  if (::fsync(fd) != 0) {
    return fail("fs.write", "fsync failed on '" + temp.string() + "'");
  }
  if (::close(fd) != 0) {
    ::unlink(temp.c_str());
    return Error::make("fs.write", "close failed on '" + temp.string() + "'");
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(temp.c_str());
    return Error::make("fs.rename", "cannot rename '" + temp.string() +
                                        "' over '" + path.string() +
                                        "': " + reason);
  }
  return Status::ok();
}

Expected<std::vector<StampedFile>> list_stamped(
    const std::filesystem::path& dir, const std::string& extension) {
  // kTruncate has no short-read analogue for a listing, so any non-latency
  // fault on a directory is a listing error.
  const FaultInjector::Action action = intercept(dir);
  if (action.fault()) {
    return Error::make("fs.listdir", "cannot list '" + dir.string() +
                                         "' (injected fault)");
  }
  const auto list_error = [&dir](int error) {
    return Error::make("fs.listdir", "cannot list '" + dir.string() +
                                         "': " + std::strerror(error));
  };
  const int dir_fd =
      ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return list_error(errno);
  DIR* stream = ::fdopendir(dir_fd);
  if (stream == nullptr) {
    const int error = errno;
    ::close(dir_fd);
    return list_error(error);
  }
  // Names first, sorted, then one stat and one path per name in that
  // order: the stamps never move, and all entries share `dir`, so ordering
  // the names orders the paths exactly as comparing their native strings
  // would.
  std::vector<std::string> names;
  int read_error = 0;
  for (;;) {
    errno = 0;
    const dirent* entry = ::readdir(stream);
    if (entry == nullptr) {
      read_error = errno;
      break;
    }
    const std::string_view name(entry->d_name);
    if (extension_of(name) == extension) names.emplace_back(name);
  }
  if (read_error != 0) {
    ::closedir(stream);  // closes dir_fd too
    return list_error(read_error);
  }
  std::sort(names.begin(), names.end());
  std::string prefix = dir.native();
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  std::vector<StampedFile> files;
  files.reserve(names.size());
  for (const std::string& name : names) {
    StampedFile stamp;
    struct ::stat st {};
    if (::fstatat(dir_fd, name.c_str(), &st, 0) == 0) {
      if (!S_ISREG(st.st_mode)) continue;
      stamp.size = static_cast<std::uint64_t>(st.st_size);
      stamp.mtime_ns =
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
          st.st_mtim.tv_nsec;
      stamp.stat_ok = true;
    } else if (errno == ENOENT) {
      continue;  // removed since the read, or a dangling symlink
    }
    stamp.path = prefix + name;  // what `dir / name` gives
    files.push_back(std::move(stamp));
  }
  ::closedir(stream);  // closes dir_fd too
  return files;
}

}  // namespace pdcu::fs
