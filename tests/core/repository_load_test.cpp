// Lenient loading with quarantine: Repository::load_lenient parses every
// content file, quarantines the malformed ones with structured
// diagnostics (sorted by path, deterministic at any pool size), and still
// produces a serving Repository from the healthy remainder. The strict
// load aggregates *all* failures into one error instead of an arbitrary
// first.
#include "pdcu/core/repository.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/support/fault.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace core = pdcu::core;
namespace fs = pdcu::fs;
namespace strs = pdcu::strings;

namespace {

/// Fresh export of the builtin curation (38 healthy activities).
std::filesystem::path fresh_content_dir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  auto status = core::Repository::builtin().export_to(dir);
  EXPECT_TRUE(status.has_value());
  return dir;
}

void corrupt(const std::filesystem::path& dir, const std::string& slug) {
  // A file with front matter but no title fails to parse.
  EXPECT_TRUE(fs::write_file(dir / "activities" / (slug + ".md"),
                             "---\ndate: 2020-01-01\n---\nno title\n"));
}

}  // namespace

TEST(LoadLenient, HealthyContentIsNotDegraded) {
  auto dir = fresh_content_dir("pdcu_lenient_healthy");
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  const auto& report = loaded.value();
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.total_files, 38u);
  EXPECT_EQ(report.loaded(), 38u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(strs::contains(report.render_report(), "content is healthy"));
}

TEST(LoadLenient, QuarantinesMalformedFilesAndKeepsServing) {
  auto dir = fresh_content_dir("pdcu_lenient_quarantine");
  corrupt(dir, "findsmallestcard");
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value());
  const auto& report = loaded.value();
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.total_files, 38u);
  EXPECT_EQ(report.loaded(), 37u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].slug, "findsmallestcard");
  EXPECT_EQ(report.quarantined[0].error.code, "activity.title");
  // The degraded repository serves the healthy remainder.
  EXPECT_EQ(report.repository.activities().size(), 37u);
  EXPECT_EQ(report.repository.find("findsmallestcard"), nullptr);
  EXPECT_NE(report.repository.find("sortingnetworks"), nullptr);
}

TEST(LoadLenient, DiagnosticsAreSortedByPath) {
  auto dir = fresh_content_dir("pdcu_lenient_sorted");
  // Corrupt three files chosen so alphabetical order differs from any
  // "first error encountered" order a racing parse could produce.
  corrupt(dir, "sortingnetworks");
  corrupt(dir, "findsmallestcard");
  corrupt(dir, "jigsawpuzzle");
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value());
  const auto& q = loaded.value().quarantined;
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0].slug, "findsmallestcard");
  EXPECT_EQ(q[1].slug, "jigsawpuzzle");
  EXPECT_EQ(q[2].slug, "sortingnetworks");
  EXPECT_EQ(loaded.value().quarantined_slugs(),
            (std::vector<std::string>{"findsmallestcard", "jigsawpuzzle",
                                      "sortingnetworks"}));
}

TEST(LoadLenient, RenderReportNamesEveryQuarantinedFile) {
  auto dir = fresh_content_dir("pdcu_lenient_report");
  corrupt(dir, "findsmallestcard");
  corrupt(dir, "sortingnetworks");
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value());
  const std::string report = loaded.value().render_report();
  EXPECT_TRUE(strs::contains(report, "36 of 38 activities loaded"));
  EXPECT_TRUE(strs::contains(report, "2 quarantined"));
  EXPECT_TRUE(strs::contains(report, "findsmallestcard.md"));
  EXPECT_TRUE(strs::contains(report, "sortingnetworks.md"));
  EXPECT_TRUE(strs::contains(report, "[activity.title]"));
}

TEST(LoadLenient, RenderJsonSpeaksTheCheckSchema) {
  auto dir = fresh_content_dir("pdcu_lenient_json");
  auto healthy = core::Repository::load_lenient(dir);
  ASSERT_TRUE(healthy.has_value());
  const std::string clean = healthy.value().render_json();
  EXPECT_TRUE(strs::contains(clean, "\"status\":\"ok\""));
  EXPECT_TRUE(strs::contains(clean, "\"total_files\":38"));
  EXPECT_TRUE(strs::contains(clean, "\"loaded\":38"));
  EXPECT_TRUE(strs::contains(clean, "\"quarantined\":[]"));

  corrupt(dir, "findsmallestcard");
  auto degraded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(degraded.has_value());
  const std::string json = degraded.value().render_json();
  EXPECT_TRUE(strs::contains(json, "\"status\":\"degraded\""));
  EXPECT_TRUE(strs::contains(json, "\"loaded\":37"));
  EXPECT_TRUE(strs::contains(json, "\"slug\":\"findsmallestcard\""));
  EXPECT_TRUE(strs::contains(json, "\"code\":\"activity.title\""));
  // Diagnostic messages may carry quotes/newlines; they must arrive
  // escaped, never as raw control bytes that would break a JSON parser.
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
  }
  EXPECT_EQ(json.back(), '\n');
}

TEST(LoadLenient, QuarantinesFilesThatFailToRead) {
  auto dir = fresh_content_dir("pdcu_lenient_ioerror");
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "findsmallestcard.md",
                     .mode = fs::FaultInjector::Mode::kIoError});
  fs::ScopedFaultInjection scope(injector);
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value());
  const auto& report = loaded.value();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].slug, "findsmallestcard");
  EXPECT_EQ(report.quarantined[0].error.code, "fs.read");
  EXPECT_EQ(report.loaded(), 37u);
}

TEST(LoadLenient, MissingDirectoryIsAHardError) {
  auto loaded = core::Repository::load_lenient("/nonexistent/content");
  EXPECT_FALSE(loaded.has_value());
}

TEST(StrictLoad, AggregatesAllFailuresSortedByPath) {
  auto dir = fresh_content_dir("pdcu_strict_aggregate");
  corrupt(dir, "sortingnetworks");
  corrupt(dir, "findsmallestcard");
  auto first = core::Repository::load(dir);
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, "repository.load");
  const std::string& message = first.error().message;
  EXPECT_TRUE(strs::contains(message, "2 of 38 content files failed"));
  const auto find_pos = message.find("findsmallestcard.md");
  const auto sort_pos = message.find("sortingnetworks.md");
  ASSERT_NE(find_pos, std::string::npos);
  ASSERT_NE(sort_pos, std::string::npos);
  EXPECT_LT(find_pos, sort_pos);  // path order, not discovery order
  // Deterministic: a second load reports the identical message.
  auto second = core::Repository::load(dir);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().message, message);
}

TEST(LoadCache, ReparsesOnlyRestampedFilesAndDropsDeletedOnes) {
  auto dir = fresh_content_dir("pdcu_load_cache");
  const auto list = [&dir] {
    auto files = core::list_content(dir);
    EXPECT_TRUE(files.has_value());
    return files.value();
  };
  // Later edits carry strictly later mtimes, as edits seconds apart would.
  auto stamp = std::filesystem::file_time_type::clock::now();
  const auto restamp = [&stamp](const std::filesystem::path& path) {
    stamp += std::chrono::seconds(2);
    std::filesystem::last_write_time(path, stamp);
  };

  core::LoadCache cache;
  const core::LoadReport cold = core::Repository::load_lenient(list(), cache);
  EXPECT_EQ(cold.files_parsed, 38u);
  EXPECT_EQ(cold.files_reused, 0u);
  EXPECT_EQ(cache.size(), 38u);
  const auto& activities = cold.repository.activities();
  for (std::size_t i = 0; i < activities.size(); ++i) {
    EXPECT_EQ(cold.repository.fingerprint(i),
              core::activity_fingerprint(activities[i]));
  }

  const core::LoadReport warm = core::Repository::load_lenient(list(), cache);
  EXPECT_EQ(warm.files_parsed, 0u);
  EXPECT_EQ(warm.files_reused, 38u);
  ASSERT_EQ(warm.repository.activities().size(), activities.size());
  for (std::size_t i = 0; i < activities.size(); ++i) {
    EXPECT_EQ(core::write_activity(warm.repository.activities()[i]),
              core::write_activity(activities[i]));
  }

  // One file edited, one deleted, one broken.
  const auto path_of = [&dir](const std::string& slug) {
    return dir / "activities" / (slug + ".md");
  };
  auto edited = core::Repository::builtin().activities().back();
  ASSERT_NE(edited.slug, "findsmallestcard");
  ASSERT_NE(edited.slug, "sortingnetworks");
  edited.details += "\n\nEdited.";
  ASSERT_TRUE(
      fs::write_file(path_of(edited.slug), core::write_activity(edited)));
  restamp(path_of(edited.slug));
  std::filesystem::remove(path_of("sortingnetworks"));
  corrupt(dir, "findsmallestcard");
  restamp(path_of("findsmallestcard"));
  const core::LoadReport edit = core::Repository::load_lenient(list(), cache);
  EXPECT_EQ(edit.files_parsed, 2u);
  EXPECT_EQ(edit.files_reused, 35u);
  EXPECT_EQ(edit.total_files, 37u);
  EXPECT_EQ(edit.quarantined_slugs(),
            std::vector<std::string>{"findsmallestcard"});
  EXPECT_EQ(cache.size(), 37u);  // the deleted file's entry is gone
  const core::Activity* reloaded = edit.repository.find(edited.slug);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_TRUE(strs::contains(reloaded->details, "Edited."));

  // The parse error is memoized with its stamp: nothing is re-read, and
  // the file stays quarantined until it changes.
  const core::LoadReport again = core::Repository::load_lenient(list(), cache);
  EXPECT_EQ(again.files_parsed, 0u);
  EXPECT_EQ(again.quarantined_slugs(),
            std::vector<std::string>{"findsmallestcard"});
}

TEST(LoadCache, ReadErrorsAreRetriedNotMemoized) {
  auto dir = fresh_content_dir("pdcu_load_cache_read_error");
  auto files = core::list_content(dir);
  ASSERT_TRUE(files.has_value());
  core::LoadCache cache;
  {
    fs::FaultInjector injector;
    injector.add_rule({.path_substring = "findsmallestcard.md",
                       .mode = fs::FaultInjector::Mode::kIoError});
    fs::ScopedFaultInjection scope(injector);
    const auto faulted = core::Repository::load_lenient(files.value(), cache);
    EXPECT_EQ(faulted.quarantined_slugs(),
              std::vector<std::string>{"findsmallestcard"});
  }
  const auto healed = core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(healed.files_parsed, 1u);
  EXPECT_FALSE(healed.degraded());
}
