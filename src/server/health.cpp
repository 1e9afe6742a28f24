#include "pdcu/server/health.hpp"

#include "pdcu/obs/exposition.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::server {

void HealthTracker::set_content(std::size_t loaded,
                                std::vector<std::string> quarantined) {
  std::lock_guard lock(mutex_);
  loaded_ = loaded;
  quarantined_ = std::move(quarantined);
}

void HealthTracker::record_reload_success() {
  std::lock_guard lock(mutex_);
  last_reload_ = ReloadOutcome::kOk;
  last_error_.clear();
  last_reload_at_ = std::chrono::steady_clock::now();
  ++epoch_;
}

void HealthTracker::record_reload_failure(std::string error) {
  std::lock_guard lock(mutex_);
  last_reload_ = ReloadOutcome::kFailed;
  last_error_ = std::move(error);
  last_reload_at_ = std::chrono::steady_clock::now();
}

bool HealthTracker::degraded() const {
  std::lock_guard lock(mutex_);
  return !quarantined_.empty() || last_reload_ == ReloadOutcome::kFailed;
}

std::string HealthTracker::render_json() const {
  std::lock_guard lock(mutex_);
  const bool degraded =
      !quarantined_.empty() || last_reload_ == ReloadOutcome::kFailed;
  std::string json = "{\"status\":\"";
  json += degraded ? "degraded" : "ok";
  json += "\",\"epoch\":" + std::to_string(epoch_);
  json += ",\"activities\":" + std::to_string(loaded_);
  json += ",\"quarantined\":" + std::to_string(quarantined_.size());
  json += ",\"quarantined_slugs\":[";
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    if (i > 0) json += ',';
    json += '"';
    strings::json_escape_append(quarantined_[i], json);
    json += '"';
  }
  json += "],\"last_reload\":\"";
  switch (last_reload_) {
    case ReloadOutcome::kNever:
      json += "never";
      break;
    case ReloadOutcome::kOk:
      json += "ok";
      break;
    case ReloadOutcome::kFailed:
      json += "failed";
      break;
  }
  json += "\"";
  if (last_reload_ != ReloadOutcome::kNever) {
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - last_reload_at_);
    json += ",\"last_reload_age_ms\":" + std::to_string(age.count());
  }
  if (!last_error_.empty()) {
    json += ",\"last_error\":\"";
    strings::json_escape_append(last_error_, json);
    json += '"';
  }
  json += "}\n";
  return json;
}

std::string ReloadMetrics::render_text() const {
  obs::Exposition out;
  out.counter("pdcu_reload_attempts_total", "Content reloads attempted.",
              attempts());
  out.counter("pdcu_reload_success_total",
              "Content reloads that swapped in a new snapshot.", successes());
  out.counter("pdcu_reload_failures_total",
              "Content reloads that kept the last-known-good snapshot.",
              failures());
  out.gauge("pdcu_reload_consecutive_failures",
            "Failed reloads since the last success.", consecutive_failures());
  const auto gauge = [&out](std::string_view name, std::string_view help,
                            const std::atomic<std::uint64_t>& value) {
    out.gauge(name, help, value.load(kRelaxed));
  };
  gauge("pdcu_reload_last_ok",
        "Whether the most recent reload succeeded (1) or failed (0).",
        last_ok_);
  gauge("pdcu_reload_quarantined",
        "Content files quarantined by the last successful reload.",
        quarantined_);
  gauge("pdcu_reload_pages_rendered_last",
        "Pages re-rendered by the last successful reload.",
        pages_rendered_last_);
  gauge("pdcu_reload_files_parsed_last",
        "Content files the last successful reload read and parsed.",
        files_parsed_last_);
  gauge("pdcu_reload_files_reused_last",
        "Content files the last successful reload took from its parse "
        "memo.",
        files_reused_last_);
  gauge("pdcu_reload_docs_tokenized_last",
        "Search documents the last successful reload tokenized.",
        docs_tokenized_last_);
  gauge("pdcu_reload_docs_reused_last",
        "Search documents whose postings the last successful reload "
        "reused.",
        docs_reused_last_);
  gauge("pdcu_reload_cache_entries_rebuilt_last",
        "Page cache entries the last successful reload built.",
        entries_rebuilt_last_);
  gauge("pdcu_reload_cache_entries_reused_last",
        "Page cache entries the last successful reload took over from the "
        "previous snapshot.",
        entries_reused_last_);
  gauge("pdcu_reload_backoff_ms",
        "Current reload failure backoff in milliseconds (0 when healthy).",
        backoff_ms_);
  return out.take();
}

}  // namespace pdcu::server
