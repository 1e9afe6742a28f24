// Integration: the whole site built from the on-disk curation matches the
// site built from the in-memory curation, page for page.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "pdcu/core/repository.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/slug.hpp"
#include "pdcu/support/strings.hpp"

namespace core = pdcu::core;
namespace site = pdcu::site;

namespace {

site::Site site_from_disk() {
  // One directory per process: ctest runs each test of this file in its
  // own process, concurrently, and each one rewrites the directory.
  auto dir = std::filesystem::temp_directory_path() /
             ("pdcu_sitebuild_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto builtin = core::Repository::builtin();
  EXPECT_TRUE(builtin.export_to(dir).has_value());
  auto loaded = core::Repository::load(dir);
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(loaded.has_value());
  return site::build_site(loaded.value());
}

}  // namespace

TEST(SiteBuild, SamePageSetFromDiskAndMemory) {
  auto from_disk = site_from_disk();
  auto from_memory = site::build_site(core::Repository::builtin());
  std::set<std::string> disk_paths;
  std::set<std::string> memory_paths;
  for (const auto& page : from_disk.pages) disk_paths.insert(page.path);
  for (const auto& page : from_memory.pages) {
    memory_paths.insert(page.path);
  }
  EXPECT_EQ(disk_paths, memory_paths);
}

TEST(SiteBuild, PageCountBreakdown) {
  auto s = site::build_site(core::Repository::builtin());
  // 1 index + 38 activities + 4 views + one page per distinct term.
  std::size_t term_pages = 0;
  const auto repo = core::Repository::builtin();
  const auto config = pdcu::tax::TaxonomyConfig::pdcunplugged();
  for (const auto& taxonomy : config.all()) {
    term_pages += repo.index().terms(taxonomy.key).size();
  }
  // index.html + activities + 4 views + term pages + search + index.json.
  EXPECT_EQ(s.pages.size(), 1u + 38u + 4u + term_pages + 1u + 1u);
  EXPECT_GT(term_pages, 100u);  // rich taxonomy surface
}

TEST(SiteBuild, ActivityPagesIdenticalAcrossSources) {
  auto from_disk = site_from_disk();
  auto from_memory = site::build_site(core::Repository::builtin());
  const char* path = "activities/selfstabilizingtokenring/index.html";
  const auto* disk_page = from_disk.find(path);
  const auto* memory_page = from_memory.find(path);
  ASSERT_NE(disk_page, nullptr);
  ASSERT_NE(memory_page, nullptr);
  EXPECT_EQ(disk_page->html(), memory_page->html());
}

TEST(SiteBuild, EveryVisibleTermHasAPage) {
  auto s = site::build_site(core::Repository::builtin());
  const auto& repo = core::Repository::builtin();
  auto config = pdcu::tax::TaxonomyConfig::pdcunplugged();
  for (const auto& taxonomy : config.visible()) {
    for (const auto& term : repo.index().terms(taxonomy.key)) {
      std::string path =
          taxonomy.key + "/" + pdcu::slugify(term) + "/index.html";
      EXPECT_NE(s.find(path), nullptr) << path;
    }
  }
}

TEST(SiteBuild, EveryActivityLinkResolvesWithinTheSite) {
  // No dangling internal links: every /activities/<slug>/ href that
  // appears anywhere corresponds to a generated page.
  auto s = site::build_site(core::Repository::builtin());
  std::set<std::string> pages;
  for (const auto& page : s.pages) pages.insert("/" + page.path);
  for (const auto& page : s.pages) {
    std::size_t pos = 0;
    while ((pos = page.html().find("href=\"/activities/", pos)) !=
           std::string::npos) {
      std::size_t start = pos + 6;
      std::size_t end = page.html().find('"', start);
      std::string href = page.html().substr(start, end - start);
      EXPECT_TRUE(pages.count(href + "index.html") == 1)
          << "dangling " << href << " in " << page.path;
      pos = end;
    }
  }
}
