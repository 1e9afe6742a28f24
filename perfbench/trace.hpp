// Spans of a traced run, kept in memory and written out once at exit: one
// span per layer call the benchmark makes, each with a name, start, end
// and the span that caused it (0 for roots). Spans of one request share
// the request's root span as parent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Records a span and returns its id. Thread-safe.
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
    std::lock_guard lock(mutex_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({name, id, parent, start_ns, end_ns});
    return id;
  }

  /// Appends already-numbered spans recorded elsewhere (one thread's
  /// buffer), renumbering them after the spans held so far.
  void merge(const std::vector<Span>& spans) {
    std::lock_guard lock(mutex_);
    const std::uint64_t base = spans_.size();
    for (Span span : spans) {
      span.id += base;
      if (span.parent != 0) span.parent += base;
      spans_.push_back(span);
    }
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

  /// One JSON object per line: {"id","parent","name","start_ns","dur_ns"}.
  bool write(const std::filesystem::path& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":" << json_quote(s.name)
          << ",\"start_ns\":" << (s.start_ns - origin)
          << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
