#include "pdcu/site/site.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/views.hpp"
#include "pdcu/obs/exposition.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/site/json_catalog.hpp"
#include "pdcu/markdown/frontmatter.hpp"
#include "pdcu/markdown/html.hpp"
#include "pdcu/markdown/parser.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/runtime/trace.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/slug.hpp"
#include "pdcu/support/strings.hpp"
#include "pdcu/taxonomy/chips.hpp"

namespace pdcu::site {

namespace strs = pdcu::strings;

namespace {

/// Wraps body HTML in the shared page layout.
std::string layout(std::string_view site_title, std::string_view page_title,
                   std::string_view body) {
  std::string out;
  out.reserve(body.size() + page_title.size() + site_title.size() + 320);
  out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  out += "<meta charset=\"utf-8\">\n";
  out += "<title>";
  strs::html_escape_append(page_title, out);
  out += " | ";
  strs::html_escape_append(site_title, out);
  out += "</title>\n";
  out += "<style>.chip{color:#fff;padding:2px 6px;border-radius:4px;"
         "margin-right:4px;text-decoration:none;font-size:0.85em}</style>\n";
  out += "</head>\n<body>\n";
  out += body;
  out += "</body>\n</html>\n";
  return out;
}

const tax::TaxonomyConfig& config() {
  static const tax::TaxonomyConfig kConfig =
      tax::TaxonomyConfig::pdcunplugged();
  return kConfig;
}

std::string chips_for(const core::Activity& activity, bool ansi) {
  std::string out;
  const auto tags = activity.tags();
  for (const auto& taxonomy : config().visible()) {
    auto it = tags.find(taxonomy.key);
    if (it == tags.end()) continue;
    for (const auto& term : it->second) {
      out += ansi ? tax::ansi_chip(taxonomy, term)
                  : tax::html_chip(taxonomy, term);
      out += ansi ? " " : "\n";
    }
  }
  return out;
}

std::string activities_list_html(const std::vector<tax::PageRef>& pages) {
  std::string out = "<ul>\n";
  for (const auto& page : pages) {
    out += "<li><a href=\"/activities/" + page.slug + "/\">" +
           strs::html_escape(page.title) + "</a></li>\n";
  }
  out += "</ul>\n";
  return out;
}

/// The activity body from its canonical serialization.
std::string render_activity_page_from(const core::Activity& activity,
                                      const std::string& serialized) {
  std::string body = render_activity_header(activity);
  auto split = md::parse_content(serialized);
  if (split) {
    const std::string& markdown = split.value().body;
    // HTML is the Markdown text plus tags: ~5/4 of the source plus slack
    // covers typical expansion, so the append path rarely reallocates.
    body.reserve(body.size() + markdown.size() + markdown.size() / 4 + 512);
    md::render_html_append(md::parse_markdown(markdown), body);
  }
  return body;
}

using hash::Fingerprint;

/// One planned page: where it goes, a fingerprint of everything its bytes
/// depend on, and how to produce those bytes if the fingerprint is new.
struct PageJob {
  std::string path;
  std::uint64_t fingerprint = 0;
  std::function<std::string()> render;
};

/// The static search shell (only functional when served by pdcu::server;
/// the static export degrades to a visible hint).
std::string search_page_body() {
  return
      "<h1>Search</h1>\n"
      "<form id=\"search-form\">\n"
      "<input id=\"search-q\" type=\"search\" name=\"q\" "
      "placeholder=\"e.g. message passing cs2013:PD-Communication\" "
      "autofocus>\n"
      "<button type=\"submit\">Search</button>\n"
      "</form>\n"
      "<p class=\"hint\">Free text plus filters: <code>cs2013:</code> "
      "<code>tcpp:</code> <code>course:</code> <code>sense:</code></p>\n"
      "<div id=\"search-results\"></div>\n"
      "<script>\n"
      "const form = document.getElementById('search-form');\n"
      "const out = document.getElementById('search-results');\n"
      "form.addEventListener('submit', async (e) => {\n"
      "  e.preventDefault();\n"
      "  const q = document.getElementById('search-q').value;\n"
      "  if (!q.trim()) return;\n"
      "  try {\n"
      "    const r = await fetch('/api/search?q=' + "
      "encodeURIComponent(q) + '&limit=20');\n"
      "    const data = await r.json();\n"
      "    out.innerHTML = data.hits && data.hits.length\n"
      "      ? data.hits.map(h => `<div class=\"hit\"><a href=\"${h.url}\">"
      "${h.title}</a> <small>${h.score.toFixed(2)}</small>"
      "<p>${h.snippet}</p></div>`).join('')\n"
      "      : '<p>No results.</p>';\n"
      "  } catch (err) {\n"
      "    out.innerHTML = '<p>Search needs the pdcu server "
      "(<code>pdcu serve</code>).</p>';\n"
      "  }\n"
      "});\n"
      "</script>\n";
}

/// Plans every page of the site, in the fixed output order: index,
/// activities, term pages, views, search, catalog. Each job's fingerprint
/// covers exactly the inputs its bytes depend on, so body-only edits leave
/// term/view pages untouched while title or membership changes invalidate
/// them. `activity_fps` holds each activity's core::activity_fingerprint;
/// it is empty for a build without a cache, whose fingerprints go unused.
/// The catalog is assembled from `documents`, the activity JSON rendered
/// before any page.
std::vector<PageJob> plan_jobs(const core::Repository& repo,
                               const SiteOptions& options,
                               const std::vector<std::uint64_t>& activity_fps,
                               const std::vector<Page>& documents) {
  const auto& activities = repo.activities();
  std::vector<PageJob> jobs;
  jobs.reserve(activities.size() + 256);

  Fingerprint opts_fp;
  opts_fp.mix(options.base_title);

  // Index page: all activities, newest first (Hugo default ordering).
  {
    std::vector<const core::Activity*> sorted;
    sorted.reserve(activities.size());
    for (const auto& a : activities) sorted.push_back(&a);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const core::Activity* x, const core::Activity* y) {
                       return y->date < x->date;
                     });
    Fingerprint fp = opts_fp;
    for (const auto* a : sorted) {
      fp.mix(a->slug).mix(a->title);
      fp.mix(static_cast<std::uint64_t>(a->date.year) << 16 |
             static_cast<std::uint64_t>(a->date.month) << 8 |
             static_cast<std::uint64_t>(a->date.day));
    }
    jobs.push_back(
        {"index.html", fp.value(), [sorted = std::move(sorted), &options] {
           std::string body = "<h1>" + options.base_title + "</h1>\n<ul>\n";
           for (const auto* a : sorted) {
             body += "<li><a href=\"/activities/" + a->slug + "/\">" +
                     strs::html_escape(a->title) + "</a></li>\n";
           }
           body += "</ul>\n";
           return layout(options.base_title, "Activities", body);
         }});
  }

  // One page per activity. The activity fingerprint covers every input of
  // the page body (title, tags, date, all sections); the serialization the
  // body renders from is made only when the page is actually rendered.
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const core::Activity* activity = &activities[i];
    Fingerprint fp = opts_fp;
    if (!activity_fps.empty()) fp.mix(activity_fps[i]);
    jobs.push_back({"activities/" + activity->slug + "/index.html",
                    fp.value(), [activity, &options] {
                      return layout(options.base_title, activity->title,
                                    render_activity_page_from(
                                        *activity,
                                        core::write_activity(*activity)));
                    }});
  }

  // One listing page per (taxonomy, term); inputs are the term's
  // membership (slugs and titles, in order), which the index fingerprints
  // as it is built.
  if (options.include_term_pages) {
    for (const auto& taxonomy : config().all()) {
      for (const auto& term : repo.index().terms(taxonomy.key)) {
        Fingerprint fp = opts_fp;
        fp.mix(taxonomy.key).mix(taxonomy.display_name).mix(term);
        fp.mix(repo.index().membership_fingerprint(taxonomy.key, term));
        jobs.push_back(
            {taxonomy.key + "/" + slugify(term) + "/index.html", fp.value(),
             [&taxonomy, term, &repo, &options] {
               std::string body = "<h1>" + taxonomy.display_name + ": " +
                                  strs::html_escape(term) + "</h1>\n";
               body += activities_list_html(
                   repo.index().pages(taxonomy.key, term));
               return layout(options.base_title, term, body);
             }});
      }
    }
  }

  // The four views of §II.C. Their bytes depend on the term index alone
  // (membership per outcome/topic/course/sense, by slug and title), which
  // the repository's taxonomy fingerprint covers, so body edits never
  // invalidate them.
  if (options.include_views) {
    Fingerprint tags_fp = opts_fp;
    tags_fp.mix(repo.taxonomy_fingerprint());
    const auto view_fp = [&tags_fp](std::string_view name) {
      Fingerprint fp = tags_fp;
      fp.mix(name);
      return fp.value();
    };
    jobs.push_back({"views/cs2013/index.html", view_fp("cs2013"),
                    [&repo, &options] {
                      std::string body = "<h1>CS2013 View</h1>\n";
                      for (const auto& entry : core::cs2013_view(repo)) {
                        body += "<h3>[" + entry.detail_term + "] " +
                                strs::html_escape(entry.outcome_text) +
                                "</h3>\n";
                        body += activities_list_html(entry.activities);
                      }
                      return layout(options.base_title, "CS2013 View", body);
                    }});
    jobs.push_back(
        {"views/tcpp/index.html", view_fp("tcpp"), [&repo, &options] {
           std::string body = "<h1>TCPP View</h1>\n";
           for (const auto& entry : core::tcpp_view(repo)) {
             body += "<h3>[" + entry.detail_term + "] " +
                     strs::html_escape(entry.description) + "</h3>\n";
             body += "<p>Recommended courses: " +
                     strs::html_escape(
                         strs::join(entry.recommended_courses, ", ")) +
                     "</p>\n";
             body += activities_list_html(entry.activities);
           }
           return layout(options.base_title, "TCPP View", body);
         }});
    jobs.push_back(
        {"views/courses/index.html", view_fp("courses"), [&repo, &options] {
           std::string body = "<h1>Courses View</h1>\n";
           for (const auto& entry : core::courses_view(repo)) {
             body += "<h3>" + entry.display_name + "</h3>\n";
             body += activities_list_html(entry.activities);
           }
           return layout(options.base_title, "Courses View", body);
         }});
    jobs.push_back({"views/accessibility/index.html",
                    view_fp("accessibility"), [&repo, &options] {
                      std::string body = "<h1>Accessibility View</h1>\n";
                      for (const auto& entry :
                           core::accessibility_view(repo)) {
                        body += "<h3>" + entry.kind + ": " + entry.term +
                                "</h3>\n";
                        body += activities_list_html(entry.activities);
                      }
                      return layout(options.base_title,
                                    "Accessibility View", body);
                    }});
  }

  // Interactive search page: static shell over the live /api/search
  // endpoint — only the site title feeds its bytes.
  jobs.push_back({"search/index.html", opts_fp.value(), [&options] {
                    return layout(options.base_title, "Search",
                                  search_page_body());
                  }});

  // Machine-readable catalog alongside the HTML pages. Its bytes cover
  // the full content of every activity plus derived coverage stats, all
  // of which the activity fingerprints capture.
  {
    Fingerprint fp;
    for (const std::uint64_t activity_fp : activity_fps) fp.mix(activity_fp);
    jobs.push_back({"index.json", fp.value(), [&repo, &documents] {
                      std::vector<std::string_view> objects;
                      objects.reserve(documents.size());
                      for (const auto& document : documents) {
                        objects.push_back(document.html());
                      }
                      return render_json_catalog(repo, objects);
                    }});
  }

  return jobs;
}

/// One "api/activities/<slug>.json" document per activity, keyed on the
/// activity fingerprint alone.
std::vector<PageJob> plan_documents(
    const core::Repository& repo,
    const std::vector<std::uint64_t>& activity_fps) {
  const auto& activities = repo.activities();
  std::vector<PageJob> jobs;
  jobs.reserve(activities.size());
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const core::Activity* activity = &activities[i];
    Fingerprint fp;
    if (!activity_fps.empty()) fp.mix(activity_fps[i]);
    jobs.push_back({"api/activities/" + activity->slug + ".json", fp.value(),
                    [activity] { return activity_json(*activity); }});
  }
  return jobs;
}

/// Renders `jobs` into `out` (same order), sharing the cached bytes of
/// every job whose fingerprint `cache_pages` holds; returns how many were
/// shared. Each job is an independent task writing its own slot, so the
/// order (and every byte) matches a serial run exactly.
std::size_t render_jobs(std::vector<PageJob>& jobs, std::vector<Page>& out,
                        const BuildCache::Map* cache_pages,
                        rt::ThreadPool* pool) {
  out.resize(jobs.size());
  std::atomic<std::size_t> reused{0};
  const auto render_block = [&](std::size_t lo, std::size_t hi) {
    std::size_t block_reused = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      PageJob& job = jobs[i];
      out[i].path = std::move(job.path);
      if (cache_pages != nullptr) {
        // The render phase only reads the map, so no synchronization is
        // needed around the lookups.
        const auto it = cache_pages->find(out[i].path);
        if (it != cache_pages->end() &&
            it->second.fingerprint == job.fingerprint) {
          out[i].bytes = it->second.html;
          ++block_reused;
          continue;
        }
      }
      out[i].bytes = std::make_shared<const std::string>(job.render());
    }
    reused.fetch_add(block_reused, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->parallel_for(0, jobs.size(), render_block);
  } else {
    render_block(0, jobs.size());
  }
  return reused.load(std::memory_order_relaxed);
}

/// The shared build pipeline. `cache_pages` is null for a from-scratch
/// build; with a cache, fingerprint hits share the cached bytes and the
/// cache is refilled from the finished build.
Site build_pipeline(const core::Repository& repo, const SiteOptions& options,
                    BuildCache::Map* cache_pages, BuildStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t activity_count = repo.activities().size();

  // --- parse: fingerprint every activity (only a cached build looks the
  // pages up), then plan ------------------------------------------------
  std::vector<std::uint64_t> activity_fps;
  if (cache_pages != nullptr) {
    activity_fps.resize(activity_count);
    const auto fingerprint_block = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        activity_fps[i] = repo.fingerprint(i);
      }
    };
    if (options.pool != nullptr) {
      options.pool->parallel_for(0, activity_count, fingerprint_block);
    } else {
      fingerprint_block(0, activity_count);
    }
  }
  Site site;
  std::vector<PageJob> document_jobs = plan_documents(repo, activity_fps);
  std::vector<PageJob> jobs =
      plan_jobs(repo, options, activity_fps, site.documents);
  const auto parsed = std::chrono::steady_clock::now();

  // --- render: the activity documents first (the catalog page is made
  // from them), then the pages ------------------------------------------
  render_jobs(document_jobs, site.documents, cache_pages, options.pool);
  const std::size_t reused =
      render_jobs(jobs, site.pages, cache_pages, options.pool);
  const auto rendered = std::chrono::steady_clock::now();

  // --- assemble: refresh the cache in place from this build (sharing,
  // not copying, the bytes), index the pages ----------------------------
  if (cache_pages != nullptr) {
    BuildCache::Map& map = *cache_pages;
    const std::size_t previous = map.size();
    if (previous == 0) map.reserve(jobs.size() + document_jobs.size());
    // Every entry this build touches takes its generation; entries of the
    // previous build it did not touch are the removed paths. After a build
    // every entry carries that build's generation, so any one tells it.
    const std::uint64_t generation =
        previous == 0 ? 1 : map.begin()->second.generation + 1;
    std::size_t kept = 0;  // previous entries this build touched
    const auto remember = [&](const std::vector<PageJob>& done,
                              const std::vector<Page>& out) {
      for (std::size_t i = 0; i < done.size(); ++i) {
        auto [it, added] = map.try_emplace(out[i].path);
        BuildCache::Entry& entry = it->second;
        if (!added && entry.generation != generation) ++kept;
        entry.fingerprint = done[i].fingerprint;
        entry.generation = generation;
        if (entry.html != out[i].bytes) entry.html = out[i].bytes;
      }
    };
    remember(document_jobs, site.documents);
    remember(jobs, site.pages);
    if (kept != previous) {
      std::erase_if(map, [generation](const auto& cached) {
        return cached.second.generation != generation;
      });
    }
  }
  site.reindex();
  const auto done = std::chrono::steady_clock::now();
  site.build_time =
      std::chrono::duration_cast<std::chrono::microseconds>(done - start);

  BuildStats result;
  result.pages_total = site.pages.size();
  result.activities_quarantined = options.quarantined_inputs;
  result.pages_reused = reused;
  result.pages_rendered = result.pages_total - result.pages_reused;
  result.parse_time =
      std::chrono::duration_cast<std::chrono::microseconds>(parsed - start);
  result.render_time = std::chrono::duration_cast<std::chrono::microseconds>(
      rendered - parsed);
  result.assemble_time =
      std::chrono::duration_cast<std::chrono::microseconds>(done - rendered);
  if (options.spans != nullptr) {
    options.spans->record(
        "site.parse", static_cast<std::uint64_t>(result.parse_time.count()));
    options.spans->record(
        "site.render",
        static_cast<std::uint64_t>(result.render_time.count()));
    options.spans->record(
        "site.assemble",
        static_cast<std::uint64_t>(result.assemble_time.count()));
    options.spans->record(
        "site.total", static_cast<std::uint64_t>(site.build_time.count()));
  }
  if (options.trace != nullptr) {
    options.trace->narrate("site: " + result.summary());
  }
  if (stats != nullptr) *stats = result;
  return site;
}

}  // namespace

const Page* Site::find(std::string_view path) const {
  // The index is trusted only when it provably matches `pages`: the sizes
  // agree and the hit's stored path still matches. A Site mutated since
  // the last reindex() — appended, renamed, reordered — drops to the scan
  // instead of returning the wrong page; genuine misses scan too, since a
  // same-size mutation can hide a page the stale index never saw.
  if (index_.size() == pages.size()) {
    const auto it = index_.find(path);
    if (it != index_.end() && pages[it->second].path == path) {
      return &pages[it->second];
    }
  }
  for (const auto& page : pages) {
    if (page.path == path) return &page;
  }
  return nullptr;
}

void Site::reindex() {
  index_.clear();
  index_.reserve(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    index_.emplace(pages[i].path, i);
  }
}

std::string_view content_type_for(std::string_view path) {
  if (strs::ends_with(path, ".html") || strs::ends_with(path, ".htm")) {
    return "text/html; charset=utf-8";
  }
  if (strs::ends_with(path, ".json")) return "application/json; charset=utf-8";
  if (strs::ends_with(path, ".css")) return "text/css; charset=utf-8";
  if (strs::ends_with(path, ".js")) return "text/javascript; charset=utf-8";
  if (strs::ends_with(path, ".svg")) return "image/svg+xml";
  if (strs::ends_with(path, ".txt")) return "text/plain; charset=utf-8";
  if (strs::ends_with(path, ".png")) return "image/png";
  return "application/octet-stream";
}

std::string BuildStats::summary() const {
  std::string out = std::to_string(pages_total) + " pages (" +
                    std::to_string(pages_rendered) + " rendered, " +
                    std::to_string(pages_reused) + " reused) in " +
                    std::to_string((parse_time + render_time + assemble_time)
                                       .count()) +
                    " us [parse " + std::to_string(parse_time.count()) +
                    ", render " + std::to_string(render_time.count()) +
                    ", assemble " + std::to_string(assemble_time.count()) +
                    "]";
  if (activities_quarantined > 0) {
    out += " — DEGRADED: " + std::to_string(activities_quarantined) +
           " activities quarantined";
  }
  return out;
}

std::string BuildStats::render_text() const {
  // Gauges describing the build that produced the served site. The page
  // total is deliberately named without a _total suffix: promtool reserves
  // that suffix for counters, and these reset on every build.
  obs::Exposition out;
  out.gauge("pdcu_build_pages",
            "Pages produced by the build serving this process.", pages_total);
  out.gauge("pdcu_build_pages_rendered",
            "Pages rendered (cache misses) by the last build.",
            pages_rendered);
  out.gauge("pdcu_build_pages_reused",
            "Pages reused from the build cache by the last build.",
            pages_reused);
  out.family("pdcu_build_phase_us", obs::Exposition::Type::kGauge,
             "Wall time of each build pipeline phase, microseconds.")
      .sample({{"phase", "parse"}},
              static_cast<std::uint64_t>(parse_time.count()))
      .sample({{"phase", "render"}},
              static_cast<std::uint64_t>(render_time.count()))
      .sample({{"phase", "assemble"}},
              static_cast<std::uint64_t>(assemble_time.count()));
  out.gauge("pdcu_build_activities_quarantined",
            "Content files the lenient loader quarantined before the last "
            "build.",
            activities_quarantined);
  return out.take();
}

std::string render_activity_header(const core::Activity& activity) {
  std::string body = "<h1>" + strs::html_escape(activity.title) + "</h1>\n";
  body += "<div class=\"tags\">\n" + chips_for(activity, /*ansi=*/false) +
          "</div>\n";
  return body;
}

std::string render_activity_header_ansi(const core::Activity& activity) {
  return activity.title + "\n" + chips_for(activity, /*ansi=*/true) + "\n";
}

std::string render_activity_page(const core::Activity& activity) {
  // The body sections come from the canonical Markdown serialization, so a
  // page looks identical whether the activity was loaded from disk or from
  // the built-in curation.
  return render_activity_page_from(activity, core::write_activity(activity));
}

Site build_site(const core::Repository& repo, const SiteOptions& options,
                BuildStats* stats) {
  return build_pipeline(repo, options, nullptr, stats);
}

Site rebuild(const core::Repository& repo, BuildCache& cache,
             const SiteOptions& options, BuildStats* stats) {
  return build_pipeline(repo, options, &cache.pages_, stats);
}

Status write_pages(const Site& site, const std::filesystem::path& out_dir) {
  for (const auto& page : site.pages) {
    auto status = fs::replace_file(out_dir / page.path, page.html());
    if (!status) return status;
  }
  return Status::ok();
}

Expected<Site> write_site(const core::Repository& repo,
                          const std::filesystem::path& out_dir,
                          const SiteOptions& options) {
  Site site = build_site(repo, options);
  auto status = write_pages(site, out_dir);
  if (!status) return status.error();
  return site;
}

}  // namespace pdcu::site
