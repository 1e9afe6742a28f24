#include "pdcu/obs/access_log.hpp"

#include <ctime>
#include <string_view>
#include <utility>
#include <vector>

#include "pdcu/support/strings.hpp"

namespace pdcu::obs {

namespace {

/// UTC ISO-8601 with milliseconds, e.g. "2026-08-06T12:34:56.789Z".
std::string format_timestamp(std::chrono::system_clock::time_point when) {
  const auto since_epoch = when.time_since_epoch();
  const auto seconds =
      std::chrono::duration_cast<std::chrono::seconds>(since_epoch);
  const auto millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(since_epoch) -
      std::chrono::duration_cast<std::chrono::milliseconds>(seconds);
  const std::time_t time = seconds.count();
  std::tm utc{};
  gmtime_r(&time, &utc);
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis.count()));
  return buffer;
}

}  // namespace

std::string AccessLog::format_line(const AccessEntry& entry) {
  std::string line = "{\"ts\":\"" + format_timestamp(entry.time) + "\",";
  line += "\"method\":\"";
  strings::json_escape_append(entry.method, line);
  line += "\",\"path\":\"";
  strings::json_escape_append(entry.target, line);
  line += "\",\"status\":" + std::to_string(entry.status);
  line += ",\"bytes\":" + std::to_string(entry.bytes);
  line += ",\"latency_us\":" + std::to_string(entry.latency_us);
  line += ",\"route\":\"";
  strings::json_escape_append(entry.route, line);
  line += "\"}";
  return line;
}

AccessLog::AccessLog(const std::string& path, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (path == "-") {
    file_ = stdout;
    owns_file_ = false;
  } else {
    file_ = std::fopen(path.c_str(), "a");
  }
  if (file_ == nullptr) return;
  writer_ = std::thread([this] { writer_loop(); });
}

AccessLog::~AccessLog() {
  if (file_ == nullptr) return;
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  writer_.join();
  if (owns_file_) {
    std::fclose(file_);
  } else {
    std::fflush(file_);
  }
}

void AccessLog::log(AccessEntry entry) {
  if (file_ == nullptr) return;
  {
    std::lock_guard lock(mutex_);
    if (ring_.size() >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring_.push_back(std::move(entry));
  }
  wake_.notify_one();
}

void AccessLog::flush() {
  if (file_ == nullptr) return;
  std::unique_lock lock(mutex_);
  drained_.wait(lock, [this] { return ring_.empty() && !writing_; });
  std::fflush(file_);
}

void AccessLog::writer_loop() {
  std::vector<AccessEntry> batch;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !ring_.empty(); });
      if (ring_.empty() && stop_) return;
      // Move a whole batch out so formatting and fwrite run unlocked.
      batch.assign(std::make_move_iterator(ring_.begin()),
                   std::make_move_iterator(ring_.end()));
      ring_.clear();
      writing_ = true;
    }
    std::string block;
    for (const AccessEntry& entry : batch) {
      block += format_line(entry);
      block += '\n';
    }
    std::fwrite(block.data(), 1, block.size(), file_);
    written_.fetch_add(batch.size(), std::memory_order_relaxed);
    batch.clear();
    {
      std::lock_guard lock(mutex_);
      writing_ = false;
    }
    drained_.notify_all();
  }
}

}  // namespace pdcu::obs
