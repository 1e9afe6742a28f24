#include "pdcu/site/json_catalog.hpp"

#include <gtest/gtest.h>

#include "pdcu/site/site.hpp"
#include "pdcu/support/strings.hpp"

namespace site = pdcu::site;
namespace strs = pdcu::strings;

namespace {
const pdcu::core::Repository& repo() {
  static const pdcu::core::Repository kRepo =
      pdcu::core::Repository::builtin();
  return kRepo;
}
}  // namespace

TEST(JsonCatalog, ActivityObjectCarriesAllTagAxes) {
  const auto* activity = repo().find("findsmallestcard");
  ASSERT_NE(activity, nullptr);
  std::string json = site::activity_json(*activity);
  EXPECT_TRUE(strs::contains(json, "\"slug\":\"findsmallestcard\""));
  EXPECT_TRUE(strs::contains(json, "\"title\":\"FindSmallestCard\""));
  EXPECT_TRUE(strs::contains(
      json, "\"cs2013\":[\"PD_ParallelDecomposition\","
            "\"PD_ParallelAlgorithms\"]"));
  EXPECT_TRUE(strs::contains(json, "\"courses\":[\"CS1\",\"CS2\",\"DSA\"]"));
  EXPECT_TRUE(strs::contains(json, "\"senses\":[\"touch\",\"visual\"]"));
  EXPECT_TRUE(
      strs::contains(json, "\"simulation\":\"find_smallest_card\""));
  EXPECT_TRUE(strs::contains(json, "\"has_external_resources\":false"));
}

TEST(JsonCatalog, CatalogListsEveryActivityOnce) {
  std::string json = site::render_json_catalog(repo());
  for (const auto& activity : repo().activities()) {
    std::string needle = "\"slug\":\"" + activity.slug + "\"";
    std::size_t first = json.find(needle);
    ASSERT_NE(first, std::string::npos) << activity.slug;
    EXPECT_EQ(json.find(needle, first + 1), std::string::npos)
        << activity.slug << " appears twice";
  }
}

TEST(JsonCatalog, EmbedsCoverageAndStats) {
  std::string json = site::render_json_catalog(repo());
  EXPECT_TRUE(strs::contains(json, "\"coverage\""));
  EXPECT_TRUE(strs::contains(
      json, "\"unit\":\"Parallel Decomposition\",\"outcomes\":6,"
            "\"covered\":5,\"activities\":21"));
  EXPECT_TRUE(strs::contains(
      json, "\"area\":\"Programming\",\"topics\":37,\"covered\":19,"
            "\"activities\":24"));
  EXPECT_TRUE(strs::contains(json, "\"count\":38"));
}

TEST(JsonCatalog, BracesAndBracketsBalance) {
  // Cheap structural sanity: all braces/brackets balance and never go
  // negative (string contents are escaped so raw braces cannot appear).
  std::string json = site::render_json_catalog(repo());
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonCatalog, SiteShipsIndexJson) {
  auto s = site::build_site(repo());
  const auto* page = s.find("index.json");
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(strs::starts_with(page->html(), "{"));
}
