// Named timing spans backed by lock-free histograms. A SpanRegistry maps a
// span name ("site.parse", "search.build", ...) to a Histogram; recording
// takes a shared lock only to find the histogram (creation, the rare case,
// takes the exclusive lock once per name), so spans can be recorded from
// worker threads mid-build. ScopedSpan times a block with RAII.
//
// The registry renders as a Prometheus histogram family
// (pdcu_span_duration_us_bucket{span="...",le="..."}), so the same spans
// that narrate `pdcu build --stats` also show up on /metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/obs/histogram.hpp"

namespace pdcu::obs {

class SpanRegistry {
 public:
  /// Records one duration (microseconds) under `span`.
  void record(std::string_view span, std::uint64_t duration_us);

  /// The histogram of one span; nullptr when the span never recorded.
  /// The pointer stays valid for the registry's lifetime.
  const Histogram* find(std::string_view span) const;

  /// All span names, sorted.
  std::vector<std::string> names() const;

  /// The pdcu_span_duration_us histogram family, one series per span;
  /// empty when no span recorded.
  std::string render_text() const;

  /// Human summary, one line per span:
  ///   site.render: count=2 p50=1200us p95=1800us p99=1800us mean=1500.0us
  std::string summary() const;

 private:
  mutable std::shared_mutex mutex_;
  /// unique_ptr keeps histogram addresses stable across rehashing-free
  /// map growth, so record() can fetch_add outside the lock.
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> spans_;
};

/// Times a block: records the elapsed microseconds on destruction. A null
/// registry makes it a no-op, so call sites do not need to branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRegistry* registry, std::string_view span)
      : registry_(registry),
        span_(span),
        start_(std::chrono::steady_clock::now()) {}

  ~ScopedSpan() {
    if (registry_ == nullptr) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    registry_->record(span_,
                      static_cast<std::uint64_t>(elapsed.count()));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRegistry* registry_;
  std::string span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pdcu::obs
