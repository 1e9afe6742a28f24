// The build pipeline's two load-bearing guarantees: a parallel build is
// byte-identical to the serial build (any pool size), and an incremental
// rebuild through a BuildCache produces exactly the pages a cold build
// would, re-rendering only pages whose inputs changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/site/site.hpp"

namespace core = pdcu::core;
namespace site = pdcu::site;
namespace rt = pdcu::rt;

namespace {

const core::Repository& repo() {
  static const core::Repository kRepo = core::Repository::builtin();
  return kRepo;
}

void expect_identical(const site::Site& a, const site::Site& b) {
  ASSERT_EQ(a.pages.size(), b.pages.size());
  for (std::size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].path, b.pages[i].path) << "slot " << i;
    EXPECT_EQ(a.pages[i].html(), b.pages[i].html()) << a.pages[i].path;
  }
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (std::size_t i = 0; i < a.documents.size(); ++i) {
    EXPECT_EQ(a.documents[i].path, b.documents[i].path) << "document " << i;
    EXPECT_EQ(a.documents[i].html(), b.documents[i].html())
        << a.documents[i].path;
  }
}

/// The builtin curation with one activity's body text extended.
core::Repository repo_with_touched_body(std::string_view slug) {
  std::vector<core::Activity> activities = repo().activities();
  for (auto& activity : activities) {
    if (activity.slug == slug) {
      activity.details += "\n\nRevised classroom note.";
    }
  }
  return core::Repository(std::move(activities));
}

/// The builtin curation with one activity retitled.
core::Repository repo_with_retitled(std::string_view slug) {
  std::vector<core::Activity> activities = repo().activities();
  for (auto& activity : activities) {
    if (activity.slug == slug) activity.title += " (Second Edition)";
  }
  return core::Repository(std::move(activities));
}

}  // namespace

TEST(ParallelBuild, ByteIdenticalToSerialAcrossPoolSizes) {
  const site::Site serial = site::build_site(repo());
  for (unsigned threads : {1u, 2u, 8u}) {
    rt::ThreadPool pool(threads);
    site::SiteOptions options;
    options.pool = &pool;
    const site::Site parallel = site::build_site(repo(), options);
    SCOPED_TRACE(threads);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelBuild, DefaultPoolMatchesSerialToo) {
  const site::Site serial = site::build_site(repo());
  site::SiteOptions options;
  options.pool = &rt::default_pool();
  expect_identical(serial, site::build_site(repo(), options));
}

TEST(ParallelBuild, StatsRecordPhasesAndCounts) {
  site::BuildStats stats;
  const site::Site s = site::build_site(repo(), {}, &stats);
  EXPECT_EQ(stats.pages_total, s.pages.size());
  EXPECT_EQ(stats.pages_rendered, s.pages.size());
  EXPECT_EQ(stats.pages_reused, 0u);
  EXPECT_GT(stats.render_time.count(), 0);
  const std::string text = stats.render_text();
  EXPECT_NE(text.find("pdcu_build_pages "), std::string::npos);
  EXPECT_NE(text.find("pdcu_build_phase_us{phase=\"render\"}"),
            std::string::npos);
  // A gauge family must not carry the counter suffix.
  EXPECT_EQ(text.find("pdcu_build_pages_total"), std::string::npos);
}

TEST(BuildCache, ColdRebuildEqualsBuildSite) {
  site::BuildCache cache;
  site::BuildStats stats;
  const site::Site incremental = site::rebuild(repo(), cache, {}, &stats);
  expect_identical(site::build_site(repo()), incremental);
  EXPECT_EQ(stats.pages_reused, 0u);
  EXPECT_EQ(cache.size(),
            incremental.pages.size() + incremental.documents.size());
}

TEST(BuildCache, UnchangedInputsReuseEveryPage) {
  site::BuildCache cache;
  site::rebuild(repo(), cache);
  site::BuildStats stats;
  const site::Site warm = site::rebuild(repo(), cache, {}, &stats);
  EXPECT_EQ(stats.pages_rendered, 0u);
  EXPECT_EQ(stats.pages_reused, warm.pages.size());
  expect_identical(site::build_site(repo()), warm);
}

TEST(BuildCache, TouchingOneBodyRerendersOnlyThatPageAndTheCatalog) {
  const auto touched = repo_with_touched_body("findsmallestcard");
  site::BuildCache cache;
  site::rebuild(repo(), cache);

  site::BuildStats stats;
  const site::Site incremental = site::rebuild(touched, cache, {}, &stats);

  // The rebuild must equal a cold full build of the touched curation...
  expect_identical(site::build_site(touched), incremental);
  // ...while re-rendering only the touched activity's page and the
  // machine-readable catalog (a body edit moves no term/view membership
  // and no title). That is a far larger reduction than the required 5x.
  EXPECT_EQ(stats.pages_rendered, 2u);
  EXPECT_EQ(stats.pages_reused, stats.pages_total - 2u);
  EXPECT_GE(stats.pages_total, 5u * stats.pages_rendered);
}

TEST(BuildCache, RetitlingInvalidatesMembershipPages) {
  const auto retitled = repo_with_retitled("findsmallestcard");
  site::BuildCache cache;
  site::rebuild(repo(), cache);

  site::BuildStats stats;
  const site::Site incremental = site::rebuild(retitled, cache, {}, &stats);

  // Correctness first: identical to a cold build of the retitled curation
  // (the title appears on the index, the activity page, every term page
  // listing it, the views, and the catalog).
  expect_identical(site::build_site(retitled), incremental);
  EXPECT_GT(stats.pages_rendered, 2u);
  // Terms the activity does not carry stay cached.
  EXPECT_GT(stats.pages_reused, 0u);
}

TEST(BuildCache, ParallelIncrementalRebuildMatchesSerial) {
  const auto touched = repo_with_touched_body("concerttickets");
  rt::ThreadPool pool(4);
  site::SiteOptions parallel_options;
  parallel_options.pool = &pool;

  site::BuildCache serial_cache;
  site::BuildCache parallel_cache;
  site::rebuild(repo(), serial_cache);
  site::rebuild(repo(), parallel_cache, parallel_options);

  site::BuildStats serial_stats;
  site::BuildStats parallel_stats;
  const site::Site serial =
      site::rebuild(touched, serial_cache, {}, &serial_stats);
  const site::Site parallel = site::rebuild(touched, parallel_cache,
                                            parallel_options,
                                            &parallel_stats);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial_stats.pages_rendered, parallel_stats.pages_rendered);
}

TEST(BuildCache, BaseTitleChangeInvalidatesEveryHtmlPage) {
  site::BuildCache cache;
  site::rebuild(repo(), cache);

  site::SiteOptions options;
  options.base_title = "PDCunplugged Mirror";
  site::BuildStats stats;
  const site::Site rebranded = site::rebuild(repo(), cache, options, &stats);

  expect_identical(site::build_site(repo(), options), rebranded);
  // Every HTML page embeds the site title; only index.json is reusable.
  EXPECT_EQ(stats.pages_reused, 1u);
}

TEST(BuildCache, AddDeleteAndRenameKeepExactlyTheBuiltPaths) {
  site::BuildCache cache;
  const site::Site original = site::rebuild(repo(), cache);
  std::vector<core::Activity> activities = repo().activities();
  const auto step = [&](const std::string& what) {
    SCOPED_TRACE(what);
    const core::Repository edited(activities);
    const site::Site built = site::rebuild(edited, cache);
    expect_identical(site::build_site(edited), built);
    EXPECT_EQ(cache.size(), built.pages.size() + built.documents.size());
    return built;
  };
  const auto find = [&activities](const std::string& slug) {
    return std::find_if(
        activities.begin(), activities.end(),
        [&slug](const core::Activity& a) { return a.slug == slug; });
  };

  core::Activity added = *find("findsmallestcard");
  added.slug = "findsmallestcard-added";
  added.title += " (Added)";
  activities.push_back(added);
  step("add");
  activities.erase(find("findsmallestcard"));
  step("delete");
  find("concerttickets")->slug = "concerttickets-renamed";
  step("rename");

  // Back to the original curation: the deleted and the renamed-away paths
  // left the cache, so their bytes are rendered again rather than shared
  // from the first build; a page no step touched is still shared.
  activities = repo().activities();
  const site::Site restored = step("restore");
  for (const char* path : {"activities/findsmallestcard/index.html",
                           "activities/concerttickets/index.html"}) {
    ASSERT_NE(restored.find(path), nullptr) << path;
    EXPECT_NE(restored.find(path)->bytes, original.find(path)->bytes) << path;
  }
  EXPECT_EQ(restored.find("search/index.html")->bytes,
            original.find("search/index.html")->bytes);
}
