// Live reload with last-known-good serving. A ReloadManager watches a
// content directory from a background thread: every poll interval it
// lists activities/*.md in one directory read with one stat per entry
// (fs::list_stamped) and, when the listing's fingerprint (paths, sizes,
// mtimes) moves, reloads and publishes a fresh Router snapshot via
// HttpServer::swap_router(). The same listing feeds the load.
//
// A reload costs work in proportion to the edit, not to the corpus. The
// manager carries per-document state from one reload to the next, and a
// first reload runs the same code with empty caches:
//   core   — a core::LoadCache memo keyed by (path, size, mtime) and
//            merge-walked against the sorted listing: only added or
//            restamped files are read and parsed; and the last term
//            index, shared while the taxonomy fingerprint (slugs, titles,
//            tags) is unchanged, as it is after a body-only edit;
//   site   — the site::BuildCache: only pages whose input fingerprints
//            moved are rendered, the rest share the cached bytes;
//   search — a search::IndexCache holding the previous index: only changed
//            documents are tokenized, the rest are spliced out of the
//            previous payload under their new ids;
//   server — the new Router takes over the PageCache entries (body, ETag,
//            header blocks) of unchanged pages and activity JSON from the
//            snapshot this manager last published.
// Everything past the listing is keyed on the (path, size, mtime) stamp,
// on core::activity_fingerprint and on the repository's taxonomy
// fingerprint, so a reload serves exactly the bytes a cold build of the
// same directory would.
//
// Failure policy — the heart of it: a reload that cannot produce a
// serving site (unlistable directory, or *every* activity quarantined)
// never replaces the last-known-good snapshot. The manager records the
// failure in the shared HealthTracker/ReloadMetrics, then retries with
// capped exponential backoff until content heals, at which point the next
// clean rebuild swaps in and /healthz returns to "ok". A single file that
// cannot be stat'ed or read (a symlink loop, say) is quarantined like a
// malformed one; nothing on disk makes the listing throw.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/trace.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::obs {
class SpanRegistry;
}  // namespace pdcu::obs

namespace pdcu::server {

/// Fingerprint of a content directory's activities/*.md listing: file
/// paths, sizes, and mtimes (core::listing_fingerprint over
/// core::list_content). Content bytes are not read — a change of bytes
/// without a change of size or mtime is not a thing editors do, and the
/// reload memo trusts the same stamp. Error when the listing itself fails.
Expected<std::uint64_t> content_fingerprint(
    const std::filesystem::path& content_dir);

struct ReloadOptions {
  std::chrono::milliseconds poll_interval{500};
  std::chrono::milliseconds backoff_initial{1000};  ///< after first failure
  std::chrono::milliseconds backoff_max{30000};     ///< doubling caps here
};

class ReloadManager {
 public:
  /// What one poll step did (returned by check_once, mostly for tests).
  enum class Step {
    kIdle,      ///< fingerprint unchanged, nothing to do
    kBackoff,   ///< a change is pending but the failure backoff holds
    kReloaded,  ///< a new snapshot was swapped in
    kFailed,    ///< the reload failed; last-known-good keeps serving
  };

  /// `cache` is the BuildCache that produced the currently-served site
  /// (so the first reload renders incrementally) and `fingerprint` is the
  /// content fingerprint that site was built from. `server`, `health`,
  /// and `metrics` must outlive the manager.
  ReloadManager(std::filesystem::path content_dir, HttpServer& server,
                HealthTracker& health, ReloadMetrics& metrics,
                site::BuildCache cache, std::uint64_t fingerprint,
                ReloadOptions options = {}, rt::TraceLog* trace = nullptr);
  ~ReloadManager();  ///< stops the watch thread if running

  ReloadManager(const ReloadManager&) = delete;
  ReloadManager& operator=(const ReloadManager&) = delete;

  /// Span registry for reload-built sites and indexes (site.* and
  /// search.build phase timings keep accumulating across reloads). The
  /// swapped-in router serves whatever registry the router it replaces
  /// served. Must outlive the manager. Call before start().
  void set_spans(obs::SpanRegistry* spans) { spans_ = spans; }

  /// Starts the background poll thread. Idempotent.
  void start();
  /// Stops and joins the poll thread. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One poll step, run on the caller's thread. Exposed so tests can
  /// drive the reload loop deterministically (no sleeping, no thread).
  /// Not safe concurrently with a start()ed thread.
  Step check_once();

 private:
  Step attempt_reload(const std::vector<core::ContentFile>& files,
                      std::uint64_t fingerprint);
  Step fail(const Error& error);

  std::filesystem::path content_dir_;
  HttpServer& server_;
  HealthTracker& health_;
  ReloadMetrics& metrics_;
  ReloadOptions options_;
  rt::TraceLog* trace_;
  obs::SpanRegistry* spans_ = nullptr;

  // Touched only from the polling thread (or check_once callers).
  core::LoadCache load_cache_;
  site::BuildCache cache_;
  search::IndexCache index_cache_;
  std::uint64_t last_fingerprint_;
  std::chrono::milliseconds backoff_{0};
  std::optional<std::chrono::steady_clock::time_point> next_attempt_;
  bool last_failed_ = false;
  /// The snapshot this manager last published (at first, the one serving
  /// when it was constructed): its entries share the build cache's bytes.
  std::shared_ptr<const Router> published_;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace pdcu::server
