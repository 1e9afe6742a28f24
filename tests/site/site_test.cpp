#include "pdcu/site/site.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "pdcu/support/strings.hpp"

namespace site = pdcu::site;
namespace core = pdcu::core;
namespace strs = pdcu::strings;

namespace {
const core::Repository& repo() {
  static const core::Repository kRepo = core::Repository::builtin();
  return kRepo;
}
const site::Site& full_site() {
  static const site::Site kSite = site::build_site(repo());
  return kSite;
}
const site::Page* s_page() {
  return full_site().find("activities/findsmallestcard/index.html");
}
}  // namespace

TEST(Site, BuildsIndexAndActivityPages) {
  const auto& s = full_site();
  ASSERT_NE(s.find("index.html"), nullptr);
  ASSERT_NE(s.find("activities/findsmallestcard/index.html"), nullptr);
  // One page per curated activity.
  std::size_t activity_pages = 0;
  for (const auto& page : s.pages) {
    if (strs::starts_with(page.path, "activities/")) ++activity_pages;
  }
  EXPECT_EQ(activity_pages, 38u);
}

TEST(Site, ActivityPageCarriesFigThreeHeader) {
  const auto* page = s_page();
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(strs::contains(page->html(), "<h1>FindSmallestCard</h1>"));
  // The four visible taxonomies render as colored chips linking to term
  // pages (Fig. 3).
  EXPECT_TRUE(strs::contains(page->html(),
                             "href=\"/cs2013/pd-parallelalgorithms/\""));
  EXPECT_TRUE(strs::contains(page->html(), "href=\"/courses/cs1/\""));
  EXPECT_TRUE(strs::contains(page->html(), "href=\"/senses/touch/\""));
  EXPECT_TRUE(strs::contains(page->html(), "chip-tcpp"));
  // Hidden taxonomies do NOT render in the header.
  EXPECT_FALSE(strs::contains(page->html(), "chip-cs2013details"));
  EXPECT_FALSE(strs::contains(page->html(), "chip-medium"));
}

TEST(Site, ActivityPageRendersBodySections) {
  const auto* page = s_page();
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(strs::contains(page->html(), "<h2>Original Author/link</h2>"));
  EXPECT_TRUE(strs::contains(page->html(), "<h2>Citations</h2>"));
  EXPECT_TRUE(strs::contains(page->html(), "tournament"));
}

TEST(Site, TermPagesGroupActivities) {
  const auto& s = full_site();
  const auto* cards = s.find("medium/cards/index.html");
  ASSERT_NE(cards, nullptr);
  // Six card activities (§III.D) are listed.
  EXPECT_TRUE(strs::contains(cards->html(), "findsmallestcard"));
  EXPECT_TRUE(strs::contains(cards->html(), "parallelradixsort"));
  const auto* k12 = s.find("courses/k-12/index.html");
  ASSERT_NE(k12, nullptr);
  EXPECT_TRUE(strs::contains(k12->html(), "selfstabilizingtokenring"));
}

TEST(Site, FourViewPagesExist) {
  const auto& s = full_site();
  EXPECT_NE(s.find("views/cs2013/index.html"), nullptr);
  EXPECT_NE(s.find("views/tcpp/index.html"), nullptr);
  EXPECT_NE(s.find("views/courses/index.html"), nullptr);
  EXPECT_NE(s.find("views/accessibility/index.html"), nullptr);
}

TEST(Site, TcppViewShowsRecommendedCourses) {
  const auto* view = full_site().find("views/tcpp/index.html");
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(strs::contains(view->html(), "Recommended courses:"));
  EXPECT_TRUE(strs::contains(view->html(), "C_Speedup"));
}

TEST(Site, OptionsDisableViewsAndTermPages) {
  site::SiteOptions options;
  options.include_views = false;
  options.include_term_pages = false;
  auto s = site::build_site(repo(), options);
  EXPECT_EQ(s.find("views/cs2013/index.html"), nullptr);
  EXPECT_EQ(s.find("medium/cards/index.html"), nullptr);
  // index.html + one page per activity + search page + index.json.
  EXPECT_EQ(s.pages.size(), 1u + 38u + 1u + 1u);
}

TEST(Site, PagesAreValidHtmlDocuments) {
  for (const auto& page : full_site().pages) {
    if (strs::ends_with(page.path, ".json")) continue;
    EXPECT_TRUE(strs::starts_with(page.html(), "<!DOCTYPE html>"))
        << page.path;
    EXPECT_TRUE(strs::contains(page.html(), "</html>")) << page.path;
  }
}

TEST(Site, WriteSitePutsFilesOnDisk) {
  auto dir = std::filesystem::temp_directory_path() / "pdcu_site_test";
  std::filesystem::remove_all(dir);
  auto result = site::write_site(repo(), dir);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(std::filesystem::exists(dir / "index.html"));
  EXPECT_TRUE(std::filesystem::exists(
      dir / "activities" / "concerttickets" / "index.html"));
  std::filesystem::remove_all(dir);
}

TEST(Site, WritePagesReplacesEachPageAtomically) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pdcu_site_replace_test";
  std::filesystem::remove_all(dir);
  const auto site_of = [](const std::string& index, const std::string& page) {
    site::Site s;
    s.pages.push_back(
        {"index.html", std::make_shared<const std::string>(index)});
    s.pages.push_back(
        {"a/page.html", std::make_shared<const std::string>(page)});
    return s;
  };
  ASSERT_TRUE(site::write_pages(site_of("old index", "old page"), dir));
  // A reader that opened the page before the next export keeps reading the
  // bytes it opened: the export renames a new file over the path instead
  // of truncating the one being read.
  std::ifstream before(dir / "index.html", std::ios::binary);
  ASSERT_TRUE(before.is_open());
  ASSERT_TRUE(site::write_pages(site_of("new index", "new page"), dir));
  const std::string old_bytes{std::istreambuf_iterator<char>(before), {}};
  EXPECT_EQ(old_bytes, "old index");
  std::ifstream after(dir / "index.html", std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(after), {}),
            "new index");
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_FALSE(strs::contains(entry.path().filename().string(), ".tmp."))
        << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(Site, AnsiHeaderForTerminals) {
  const auto* activity = repo().find("findsmallestcard");
  ASSERT_NE(activity, nullptr);
  std::string header = site::render_activity_header_ansi(*activity);
  EXPECT_TRUE(strs::starts_with(header, "FindSmallestCard"));
  EXPECT_TRUE(strs::contains(header, "[TCPP_Algorithms]"));
  EXPECT_TRUE(strs::contains(header, "\x1b[38;5;"));
}

TEST(Site, FindIndexSurvivesCopiesAndAppends) {
  // build_site indexes the pages; a copy keeps working (the index stores
  // offsets, not pointers).
  site::Site copy = full_site();
  ASSERT_NE(copy.find("index.html"), nullptr);
  EXPECT_EQ(copy.find("index.html"), &copy.pages.front());
  // Appending without reindex() falls back to the scan, so the new page is
  // still found; reindex() restores the O(1) path.
  copy.pages.push_back(
      {"extra/index.html", std::make_shared<const std::string>("<html></html>")});
  ASSERT_NE(copy.find("extra/index.html"), nullptr);
  copy.reindex();
  EXPECT_EQ(copy.find("extra/index.html"), &copy.pages.back());
  EXPECT_EQ(copy.find("no/such/page.html"), nullptr);
}

TEST(Site, FindNeverTrustsAStaleIndexAfterRename) {
  // Regression: a same-size mutation (rename in place) used to slip past
  // the size check, so the stale index returned the wrong page for the old
  // path and missed the new one entirely.
  site::Site copy = full_site();
  copy.pages.front().path = "renamed/index.html";
  const auto* renamed = copy.find("renamed/index.html");
  ASSERT_NE(renamed, nullptr);
  EXPECT_EQ(renamed, &copy.pages.front());
  // The old path no longer names any page, so it must not resolve — and
  // in particular must not resolve to the renamed page.
  EXPECT_EQ(copy.find("index.html"), nullptr);
  copy.reindex();
  EXPECT_EQ(copy.find("renamed/index.html"), &copy.pages.front());
  EXPECT_EQ(copy.find("index.html"), nullptr);
}

TEST(Site, FindSurvivesReorderAfterReindex) {
  site::Site copy = full_site();
  ASSERT_GE(copy.pages.size(), 2u);
  std::swap(copy.pages.front(), copy.pages.back());
  // Stale index, same size: both paths must still resolve to the right
  // (moved) pages via the staleness detection.
  const auto* front = copy.find(copy.pages.front().path);
  const auto* back = copy.find(copy.pages.back().path);
  EXPECT_EQ(front, &copy.pages.front());
  EXPECT_EQ(back, &copy.pages.back());
}

TEST(Site, ContentTypesFollowExtensions) {
  EXPECT_EQ(site::content_type_for("index.html"), "text/html; charset=utf-8");
  EXPECT_EQ(site::content_type_for("index.json"),
            "application/json; charset=utf-8");
  EXPECT_EQ(site::content_type_for("robots.txt"),
            "text/plain; charset=utf-8");
  EXPECT_EQ(site::content_type_for("logo.png"), "image/png");
  EXPECT_EQ(site::content_type_for("mystery.bin"),
            "application/octet-stream");
}

TEST(Site, BuildTimeIsRecorded) {
  auto s = site::build_site(repo());
  EXPECT_GT(s.build_time.count(), 0);
}
