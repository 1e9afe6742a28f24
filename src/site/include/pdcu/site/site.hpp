// The static-site generator: what Hugo does for pdcunplugged.org (§II).
// Renders the repository to a set of HTML pages: an index, one page per
// activity (Fig. 3 header + body), one listing page per taxonomy term, and
// the four views of §II.C.
//
// Generation runs as a three-phase pipeline:
//   parse    — fingerprint every page's inputs and plan the pages
//   render   — render pages (independently, in parallel when a pool is
//              given) into pre-sized slots, so the page order — and every
//              byte — matches the serial build exactly
//   assemble — refresh the cache in place, rebuild the path index
// A BuildCache carried across builds turns the render phase incremental:
// only pages whose input fingerprints changed are re-rendered, the rest
// share the cached bytes. Page bytes are immutable and shared, never
// copied: the cache, the Site and the server's PageCache all hold the
// same buffer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::rt {
class ThreadPool;
class TraceLog;
}  // namespace pdcu::rt

namespace pdcu::obs {
class SpanRegistry;
}  // namespace pdcu::obs

namespace pdcu::site {

/// One generated page.
struct Page {
  std::string path;  ///< site-relative, e.g. "activities/findsmallestcard/index.html"
  /// The page bytes. Immutable and shared: an incremental rebuild hands an
  /// unchanged page's buffer to the next Site, and a server snapshot built
  /// from the Site serves that same buffer.
  std::shared_ptr<const std::string> bytes;

  const std::string& html() const { return *bytes; }
};

/// Result of a site build.
struct Site {
  std::vector<Page> pages;
  /// Documents served beside the pages but not exported with them: one
  /// "api/activities/<slug>.json" (activity_json) per activity, in order.
  /// The index.json catalog page is assembled from them.
  std::vector<Page> documents;
  std::chrono::microseconds build_time{0};

  /// Lookup by site-relative path: O(1) for present pages once reindex()
  /// has run (build_site does). The index is trusted only while it
  /// provably matches `pages` — the sizes agree and the hit's stored path
  /// still matches — so a Site mutated after reindex() (append, rename,
  /// reorder) falls back to a linear scan instead of returning the wrong
  /// page.
  const Page* find(std::string_view path) const;

  /// Rebuilds the path index over the current `pages`.
  void reindex();

 private:
  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view path) const {
      return std::hash<std::string_view>{}(path);
    }
  };
  std::unordered_map<std::string, std::size_t, PathHash, std::equal_to<>>
      index_;
};

/// Content type (with charset where textual) for a site path, chosen by
/// extension: .html, .json, .css, .js, .svg, .txt, .png; anything else is
/// served as application/octet-stream.
std::string_view content_type_for(std::string_view path);

/// Options controlling generation.
struct SiteOptions {
  std::string base_title = "PDCunplugged";
  bool include_views = true;       ///< CS2013/TCPP/Courses/Accessibility views
  bool include_term_pages = true;  ///< one listing page per term
  /// Pages render as independent tasks on this pool; nullptr renders
  /// serially. Output is byte-identical either way (same pages, same
  /// order), so callers pick purely on latency: pass &rt::default_pool()
  /// unless determinism needs to be *demonstrated* against a serial run.
  rt::ThreadPool* pool = nullptr;
  /// Build lifecycle narration (page counts, reuse, per-phase times)
  /// lands here when set.
  rt::TraceLog* trace = nullptr;
  /// Count of content files the loader quarantined before this build (see
  /// core::LoadReport); carried through into BuildStats so a degraded
  /// build is visible on /metrics and in --stats output.
  std::size_t quarantined_inputs = 0;
  /// Phase durations land here as "site.parse" / "site.render" /
  /// "site.assemble" / "site.total" spans. Across repeated builds (watch
  /// mode, --incremental) the spans accumulate into histograms, so
  /// /metrics and `pdcu build --stats` can report percentiles instead of
  /// just the last build's totals.
  obs::SpanRegistry* spans = nullptr;
};

/// What one build did: page totals split into rendered vs. reused (cache
/// hits), and wall time per pipeline phase.
struct BuildStats {
  std::size_t pages_total = 0;
  std::size_t pages_rendered = 0;
  std::size_t pages_reused = 0;
  /// Content files quarantined by the lenient loader feeding this build
  /// (0 for a healthy or strict load).
  std::size_t activities_quarantined = 0;
  std::chrono::microseconds parse_time{0};     ///< fingerprint + plan
  std::chrono::microseconds render_time{0};    ///< render / reuse pages
  std::chrono::microseconds assemble_time{0};  ///< cache refresh + reindex

  /// One-line human summary, e.g.
  /// "218 pages (2 rendered, 216 reused) in 1234 us [parse 210, render
  /// 980, assemble 44]".
  std::string summary() const;

  /// /metrics exposition lines (pdcu_build_* gauges), same format as
  /// server::ServerMetrics::render_text().
  std::string render_text() const;
};

/// Input fingerprints and rendered pages and documents carried from one
/// build to the next. Feed the same cache to successive rebuild() calls;
/// those whose inputs are unchanged share the cached bytes instead of
/// re-rendering.
/// A page's inputs are fingerprinted from each activity's
/// core::activity_fingerprint (carried by the Repository), never from a
/// fresh serialization, so an unchanged activity costs a lookup.
class BuildCache {
 public:
  /// One cached page or document: the fingerprint of its inputs and the
  /// rendered bytes, shared with the Site that rebuild() returned. A
  /// rebuild refreshes the map in place: the entries it produces take its
  /// generation, and the ones it did not produce are erased.
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const std::string> html;
    std::uint64_t generation = 0;  ///< the rebuild that produced it
  };
  using Map = std::unordered_map<std::string, Entry>;

  bool empty() const { return pages_.empty(); }
  std::size_t size() const { return pages_.size(); }
  void clear() { pages_.clear(); }

 private:
  Map pages_;

  friend Site rebuild(const core::Repository& repo, BuildCache& cache,
                      const SiteOptions& options, BuildStats* stats);
};

/// Builds the whole site in memory. With `options.pool`, pages render in
/// parallel; the result is byte-identical to the serial build.
Site build_site(const core::Repository& repo, const SiteOptions& options = {},
                BuildStats* stats = nullptr);

/// Incremental build: renders only pages whose input fingerprints differ
/// from `cache`, shares the cached bytes of the rest, and leaves the cache
/// holding the new build. A cold cache degenerates to
/// build_site(); the produced Site is identical to a cold full build
/// either way.
Site rebuild(const core::Repository& repo, BuildCache& cache,
             const SiteOptions& options = {}, BuildStats* stats = nullptr);

/// Writes an already-built site's pages under `out_dir`, each through
/// fs::replace_file: a reader of a previous export keeps its bytes, and no
/// reader sees a partly written page.
Status write_pages(const Site& site, const std::filesystem::path& out_dir);

/// Builds and writes the site under `out_dir`.
Expected<Site> write_site(const core::Repository& repo,
                          const std::filesystem::path& out_dir,
                          const SiteOptions& options = {});

/// Renders one activity page (Fig. 3: title, colored taxonomy chips, then
/// the rendered Markdown body).
std::string render_activity_page(const core::Activity& activity);

/// Renders just the activity header (title + chips), as in Fig. 3.
std::string render_activity_header(const core::Activity& activity);

/// Renders an ANSI-colored terminal version of the activity header.
std::string render_activity_header_ansi(const core::Activity& activity);

}  // namespace pdcu::site
