#include "pdcu/obs/span.hpp"

#include <cstdio>
#include <mutex>

#include "pdcu/obs/exposition.hpp"

namespace pdcu::obs {

void SpanRegistry::record(std::string_view span, std::uint64_t duration_us) {
  {
    std::shared_lock lock(mutex_);
    const auto it = spans_.find(span);
    if (it != spans_.end()) {
      it->second->record(duration_us);
      return;
    }
  }
  std::unique_lock lock(mutex_);
  auto& slot = spans_[std::string(span)];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  slot->record(duration_us);
}

const Histogram* SpanRegistry::find(std::string_view span) const {
  std::shared_lock lock(mutex_);
  const auto it = spans_.find(span);
  return it == spans_.end() ? nullptr : it->second.get();
}

std::vector<std::string> SpanRegistry::names() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(spans_.size());
  for (const auto& [name, histogram] : spans_) out.push_back(name);
  return out;
}

std::string SpanRegistry::render_text() const {
  std::shared_lock lock(mutex_);
  if (spans_.empty()) return {};
  Exposition out;
  out.family("pdcu_span_duration_us", Exposition::Type::kHistogram,
             "Duration of named internal spans (build phases, index builds) "
             "in microseconds.");
  for (const auto& [name, histogram] : spans_) {
    out.histogram({{"span", name}}, histogram->snapshot());
  }
  return out.take();
}

std::string SpanRegistry::summary() const {
  std::shared_lock lock(mutex_);
  std::string out;
  for (const auto& [name, histogram] : spans_) {
    const Histogram::Snapshot snap = histogram->snapshot();
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: count=%llu p50=%lluus p95=%lluus p99=%lluus "
                  "mean=%.1fus\n",
                  name.c_str(), static_cast<unsigned long long>(snap.count),
                  static_cast<unsigned long long>(snap.percentile(50)),
                  static_cast<unsigned long long>(snap.percentile(95)),
                  static_cast<unsigned long long>(snap.percentile(99)),
                  snap.mean());
    out += line;
  }
  return out;
}

}  // namespace pdcu::obs
