#include "pdcu/server/reload.hpp"

#include <algorithm>
#include <utility>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"

namespace pdcu::server {

Expected<std::uint64_t> content_fingerprint(
    const std::filesystem::path& content_dir) {
  auto files = core::list_content(content_dir);
  if (!files) return files.error().context("fingerprinting content");
  return core::listing_fingerprint(files.value());
}

ReloadManager::ReloadManager(std::filesystem::path content_dir,
                             HttpServer& server, HealthTracker& health,
                             ReloadMetrics& metrics, site::BuildCache cache,
                             std::uint64_t fingerprint, ReloadOptions options,
                             rt::TraceLog* trace)
    : content_dir_(std::move(content_dir)),
      server_(server),
      health_(health),
      metrics_(metrics),
      options_(options),
      trace_(trace),
      cache_(std::move(cache)),
      last_fingerprint_(fingerprint),
      published_(server_.router()) {}

ReloadManager::~ReloadManager() { stop(); }

void ReloadManager::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      check_once();
      // Sleep the poll interval in short slices so stop() is prompt.
      auto remaining = options_.poll_interval;
      while (remaining.count() > 0 &&
             running_.load(std::memory_order_acquire)) {
        const auto slice = std::min<std::chrono::milliseconds>(
            remaining, std::chrono::milliseconds(50));
        std::this_thread::sleep_for(slice);
        remaining -= slice;
      }
    }
  });
}

void ReloadManager::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
}

ReloadManager::Step ReloadManager::check_once() {
  if (next_attempt_.has_value() &&
      std::chrono::steady_clock::now() < *next_attempt_) {
    return Step::kBackoff;
  }
  // One listing feeds both the change check and the load.
  auto files = core::list_content(content_dir_);
  if (!files) {
    metrics_.record_attempt();
    return fail(files.error().context("listing content"));
  }
  const std::uint64_t fingerprint = core::listing_fingerprint(files.value());
  // After a failure the fingerprint may match the last *attempted* state
  // (or the content may have been reverted to the served state); either
  // way the failure only clears by completing a clean reload, so keep
  // attempting until one lands.
  if (fingerprint == last_fingerprint_ && !last_failed_) return Step::kIdle;
  return attempt_reload(files.value(), fingerprint);
}

ReloadManager::Step ReloadManager::attempt_reload(
    const std::vector<core::ContentFile>& files, std::uint64_t fingerprint) {
  metrics_.record_attempt();
  core::LoadReport report =
      core::Repository::load_lenient(files, load_cache_);
  if (report.total_files > 0 && report.loaded() == 0) {
    // Quarantining everything is indistinguishable from losing the
    // content dir; treat it as a failed reload rather than swapping an
    // empty site over a working one.
    return fail(Error::make(
        "reload.empty", "all " + std::to_string(report.total_files) +
                            " activities quarantined; keeping "
                            "last-known-good site"));
  }

  site::SiteOptions site_options;
  site_options.pool = &rt::default_pool();
  site_options.trace = trace_;
  site_options.quarantined_inputs = report.quarantined.size();
  site_options.spans = spans_;
  site::BuildStats stats;
  site::Site site =
      site::rebuild(report.repository, cache_, site_options, &stats);

  auto index = search::SearchIndex::build(
      report.repository, &rt::default_pool(), spans_, &index_cache_);
  Router router(site, report.repository, std::move(index), published_.get());
  router.set_build_stats(stats);
  ReloadReuse reuse;
  reuse.files_parsed = report.files_parsed;
  reuse.files_reused = report.files_reused;
  reuse.docs_tokenized = index_cache_.tokenized();
  reuse.docs_reused = index_cache_.reused();
  reuse.entries_reused = router.entries_reused();
  reuse.entries_rebuilt = router.cache().size() - router.entries_reused();
  server_.swap_router(std::move(router));
  // The current snapshot is the router just built unless another thread
  // swapped in between, which costs later reloads hits, never bytes: reuse
  // is checked per entry. Replacing published_ here, after the swap, frees
  // the old snapshot on the reload thread rather than on a request.
  published_ = server_.router();

  health_.set_content(report.loaded(), report.quarantined_slugs());
  health_.record_reload_success();
  metrics_.record_success(report.quarantined.size(), stats.pages_rendered,
                          reuse);
  last_fingerprint_ = fingerprint;
  last_failed_ = false;
  backoff_ = std::chrono::milliseconds{0};
  next_attempt_.reset();
  if (trace_ != nullptr) {
    trace_->narrate(
        "reload: swapped in " + std::to_string(site.pages.size()) +
        " pages (" + std::to_string(stats.pages_rendered) + " rendered, " +
        std::to_string(report.quarantined.size()) + " quarantined; " +
        std::to_string(report.files_parsed) + " files parsed, " +
        std::to_string(reuse.docs_tokenized) + " documents tokenized)");
  }
  return Step::kReloaded;
}

ReloadManager::Step ReloadManager::fail(const Error& error) {
  last_failed_ = true;
  backoff_ = backoff_.count() == 0
                 ? options_.backoff_initial
                 : std::min(backoff_ * 2, options_.backoff_max);
  next_attempt_ = std::chrono::steady_clock::now() + backoff_;
  health_.record_reload_failure("[" + error.code + "] " + error.message);
  metrics_.record_failure(static_cast<std::uint64_t>(backoff_.count()));
  if (trace_ != nullptr) {
    trace_->narrate("reload: failed (" + error.code +
                    "), serving last-known-good; retry in " +
                    std::to_string(backoff_.count()) + " ms");
  }
  return Step::kFailed;
}

}  // namespace pdcu::server
