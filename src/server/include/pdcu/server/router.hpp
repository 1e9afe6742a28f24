// Request dispatch: maps a parsed request onto the page cache and the API
// endpoints. A Router holds everything it serves (shared page bytes,
// catalog JSON, per-activity JSON, the search index and taxonomy index),
// so the Site and Repository it was built from may be discarded after
// construction, and handle() is const and thread-safe.
//
//   GET /                                cached site pages (ETag / 304)
//   GET /activities/<slug>/              ... and every other site path
//   GET /api/catalog.json                machine-readable catalog
//   GET /api/activities/<slug>.json      one activity as JSON
//   GET /api/search?q=...&limit=...      ranked full-text + taxonomy search
//   GET /healthz                         liveness probe; with a
//                                        HealthTracker wired, a JSON body
//                                        (ok|degraded, quarantine, last
//                                        reload), otherwise plain "ok\n"
//   GET /metrics                         ServerMetrics exposition text
//   GET /cluster/gossip?digest=...       gossip exchange (only when a
//                                        GossipEndpoint is wired; 404
//                                        otherwise)
//
// Non-GET/HEAD methods on known routes get 405 with an Allow header;
// unknown paths are 404 regardless of method.
#pragma once

#include <memory>
#include <optional>

#include "pdcu/core/repository.hpp"
#include "pdcu/net/metrics.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/gossip_hook.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/server/http.hpp"
#include "pdcu/server/metrics.hpp"
#include "pdcu/server/page_cache.hpp"
#include "pdcu/server/query_cache.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/taxonomy/term_index.hpp"

namespace pdcu::server {

class Router {
 public:
  /// Builds the dispatch table from a site built (build_site or rebuild)
  /// from `repo`: its pages, its activity documents, and its index.json
  /// page as /api/catalog.json. `index` lets callers supply a prebuilt
  /// search index (parallel-built, or loaded from disk for a fast cold
  /// start); omitted, the router builds one serially from `repo`. With
  /// `previous` (the snapshot this one replaces), every page or document
  /// whose bytes the site carried over from the build that made
  /// `previous` takes over the previous entry — body, ETag and header
  /// blocks — instead of being rebuilt — and the new router inherits
  /// `previous`'s wiring (every set_* pointer below), so a reload never
  /// drops an endpoint.
  Router(const site::Site& site, const core::Repository& repo,
         std::optional<search::SearchIndex> index = std::nullopt,
         const Router* previous = nullptr);

  /// Wires the /metrics endpoint; without it /metrics is a 404. The
  /// pointee must outlive the router (HttpServer passes its own metrics).
  void set_metrics(const ServerMetrics* metrics) { metrics_ = metrics; }

  /// Attaches the stats of the build that produced the served site;
  /// /metrics then appends the pdcu_build_* gauges (pages rendered vs.
  /// reused, per-phase wall times) to the serving counters.
  void set_build_stats(const site::BuildStats& stats) { build_stats_ = stats; }

  /// Wires content health into /healthz: with a tracker the probe answers
  /// a JSON document (status ok|degraded, quarantined slugs, last-reload
  /// outcome and age); without one it stays the bare "ok\n". The pointee
  /// must outlive the router and every snapshot swapped after it.
  void set_health(const HealthTracker* health) { health_ = health; }

  /// Appends the pdcu_reload_* lines to /metrics (live-reload servers).
  void set_reload_metrics(const ReloadMetrics* metrics) {
    reload_metrics_ = metrics;
  }

  /// Enables GET /cluster/gossip?digest=... — merge the sender's digest,
  /// answer with ours. Without it the route is a 404 (standalone servers
  /// advertise no cluster surface). The pointee must outlive the router
  /// and every snapshot swapped after it.
  void set_gossip(const GossipEndpoint* gossip) { gossip_ = gossip; }

  /// Appends the pdcu_span_duration_us histogram series (site-build
  /// phases, index builds) to /metrics. The registry must outlive the
  /// router and every snapshot swapped after it.
  void set_spans(const obs::SpanRegistry* spans) { spans_ = spans; }

  /// Appends the reactor's pdcu_net_* families to /metrics (HttpServer
  /// wires its own). The pointee must outlive the router and every
  /// snapshot swapped after it.
  void set_net_metrics(const net::NetMetrics* metrics) {
    net_metrics_ = metrics;
  }

  /// Shards /api/search query execution across `pool` (per-shard top-k,
  /// deterministic merge) on corpora large enough to benefit. The pool
  /// must outlive the router and every snapshot swapped after it, and must
  /// NOT be a pool the handlers themselves run on: a handler blocking on
  /// tasks queued to its own busy pool deadlocks. Reactor handlers run on
  /// the shard threads, so rt::default_pool() is safe here.
  void set_search_pool(rt::ThreadPool* pool) { search_pool_ = pool; }

  /// Pure dispatch: no I/O, no mutation. GET and HEAD only (405 otherwise
  /// on known routes); cached paths honor If-None-Match with 304.
  Response handle(const Request& request) const;

  /// A cache hit resolved without building a Response: views into the
  /// entry's precomputed header block and body, valid for as long as the
  /// router snapshot they came from is held.
  struct FastHit {
    std::string_view head;  ///< CachedEntry::head_200 or head_304
    std::string_view body;  ///< empty for 304 and HEAD
    int status = 200;
  };

  /// The zero-copy hot path: GET/HEAD of a cached page (site pages and
  /// the static API documents), including the If-None-Match → 304 case.
  /// Everything else — dynamic routes, 404s, other methods — returns
  /// nullopt and takes handle(). Allocation-free on hit.
  std::optional<FastHit> try_fast(const Request& request) const;

  const PageCache& cache() const { return cache_; }

  /// Cache entries this router took over from `previous` at construction;
  /// the other cache().size() - entries_reused() entries were built.
  std::size_t entries_reused() const { return entries_reused_; }
  const search::SearchIndex& index() const { return index_; }

  /// The per-snapshot search result cache (stats feed pdcu_search_cache_*
  /// on /metrics). A reload swaps in a new router with a cold cache, which
  /// is exactly the invalidation /api/search needs.
  const QueryCache& query_cache() const { return query_cache_; }

  /// Memoized taxonomy-filter masks, same per-snapshot lifetime (and thus
  /// the same reload invalidation) as the query cache.
  const search::FilterCache& filter_cache() const { return filter_cache_; }

  /// Cached /api/search results per router snapshot.
  static constexpr std::size_t kQueryCacheEntries = 512;

 private:
  Response handle_search(const Request& request) const;

  PageCache cache_;
  std::size_t entries_reused_;
  search::SearchIndex index_;
  std::shared_ptr<const tax::TermIndex> taxonomy_;
  mutable QueryCache query_cache_{kQueryCacheEntries};
  mutable search::FilterCache filter_cache_;
  rt::ThreadPool* search_pool_ = nullptr;
  const ServerMetrics* metrics_ = nullptr;
  const HealthTracker* health_ = nullptr;
  const ReloadMetrics* reload_metrics_ = nullptr;
  const GossipEndpoint* gossip_ = nullptr;
  const obs::SpanRegistry* spans_ = nullptr;
  const net::NetMetrics* net_metrics_ = nullptr;
  std::optional<site::BuildStats> build_stats_;
};

}  // namespace pdcu::server
