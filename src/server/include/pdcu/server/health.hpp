// Health and reload telemetry shared between the serving side (Router
// renders /healthz and appends pdcu_reload_* to /metrics) and the reload
// side (ReloadManager records every attempt). Both classes are safe to
// read from any number of request threads while the reload thread writes:
// HealthTracker serializes through one mutex (healthz is not a hot path),
// ReloadMetrics is all relaxed atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pdcu::server {

/// The serving process's view of its own content health: how much of the
/// content loaded, what is quarantined, and how the last reload went.
class HealthTracker {
 public:
  enum class ReloadOutcome { kNever, kOk, kFailed };

  /// Records the content state after a completed (lenient) load: how many
  /// activities are serving and which slugs were quarantined.
  void set_content(std::size_t loaded, std::vector<std::string> quarantined);

  void record_reload_success();
  void record_reload_failure(std::string error);

  /// Degraded when anything is quarantined or the last reload failed.
  bool degraded() const;

  /// The /healthz body: {"status":"ok|degraded","epoch":N,"activities":N,
  /// "quarantined":N,"quarantined_slugs":[...],"last_reload":
  /// "never|ok|failed","last_reload_age_ms":N,"last_error":"..."}.
  /// last_reload_age_ms and last_error appear once a reload has happened.
  /// `epoch` is the content generation this process is serving: 1 after
  /// the initial load, +1 per successful reload. A failed reload does NOT
  /// advance it — "degraded at epoch E" tells an operator exactly which
  /// last-known-good snapshot this replica is stuck on.
  std::string render_json() const;

 private:
  mutable std::mutex mutex_;
  std::size_t loaded_ = 0;
  std::uint64_t epoch_ = 1;
  std::vector<std::string> quarantined_;
  ReloadOutcome last_reload_ = ReloadOutcome::kNever;
  std::string last_error_;
  std::chrono::steady_clock::time_point last_reload_at_{};
};

/// What one reload rebuilt and what it took over from the previous
/// reload, stage by stage.
struct ReloadReuse {
  std::size_t files_parsed = 0;     ///< core: content files read and parsed
  std::size_t files_reused = 0;     ///< core: files served from the memo
  std::size_t docs_tokenized = 0;   ///< search: documents tokenized
  std::size_t docs_reused = 0;      ///< search: postings reused
  std::size_t entries_rebuilt = 0;  ///< server: PageCache entries built
  std::size_t entries_reused = 0;   ///< server: entries taken over
};

/// Reload counters for /metrics (pdcu_reload_* lines). Gauges describe the
/// present (consecutive failures, current backoff, quarantine size);
/// counters accumulate across the server's lifetime.
class ReloadMetrics {
 public:
  void record_attempt() { attempts_.fetch_add(1, kRelaxed); }
  void record_success(std::size_t quarantined, std::size_t pages_rendered,
                      const ReloadReuse& reuse = {}) {
    success_.fetch_add(1, kRelaxed);
    consecutive_failures_.store(0, kRelaxed);
    last_ok_.store(1, kRelaxed);
    quarantined_.store(quarantined, kRelaxed);
    pages_rendered_last_.store(pages_rendered, kRelaxed);
    files_parsed_last_.store(reuse.files_parsed, kRelaxed);
    files_reused_last_.store(reuse.files_reused, kRelaxed);
    docs_tokenized_last_.store(reuse.docs_tokenized, kRelaxed);
    docs_reused_last_.store(reuse.docs_reused, kRelaxed);
    entries_rebuilt_last_.store(reuse.entries_rebuilt, kRelaxed);
    entries_reused_last_.store(reuse.entries_reused, kRelaxed);
    backoff_ms_.store(0, kRelaxed);
  }
  void record_failure(std::uint64_t backoff_ms) {
    failures_.fetch_add(1, kRelaxed);
    consecutive_failures_.fetch_add(1, kRelaxed);
    last_ok_.store(0, kRelaxed);
    backoff_ms_.store(backoff_ms, kRelaxed);
  }

  std::uint64_t attempts() const { return attempts_.load(kRelaxed); }
  std::uint64_t successes() const { return success_.load(kRelaxed); }
  std::uint64_t failures() const { return failures_.load(kRelaxed); }
  std::uint64_t consecutive_failures() const {
    return consecutive_failures_.load(kRelaxed);
  }

  /// Exposition lines, same format as ServerMetrics::render_text().
  std::string render_text() const;

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  std::atomic<std::uint64_t> attempts_{0};
  std::atomic<std::uint64_t> success_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> consecutive_failures_{0};
  std::atomic<std::uint64_t> last_ok_{1};  ///< optimistic until a failure
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> pages_rendered_last_{0};
  std::atomic<std::uint64_t> files_parsed_last_{0};
  std::atomic<std::uint64_t> files_reused_last_{0};
  std::atomic<std::uint64_t> docs_tokenized_last_{0};
  std::atomic<std::uint64_t> docs_reused_last_{0};
  std::atomic<std::uint64_t> entries_rebuilt_last_{0};
  std::atomic<std::uint64_t> entries_reused_last_{0};
  std::atomic<std::uint64_t> backoff_ms_{0};
};

}  // namespace pdcu::server
