// Full-pipeline round trip: built-in curation -> Markdown files on disk ->
// parsed repository -> identical analytics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/repository.hpp"

namespace core = pdcu::core;

namespace {

/// The builtin curation exported once per process, removed at exit.
struct ExportDir {
  ExportDir() {
    std::filesystem::remove_all(path);
    auto repo = core::Repository::builtin();
    auto status = repo.export_to(path);
    EXPECT_TRUE(status.has_value()) << status.error().message;
  }
  ~ExportDir() { std::filesystem::remove_all(path); }

  // One directory per process: ctest runs each test of this file in its
  // own process, concurrently.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("pdcu_roundtrip_test_" + std::to_string(::getpid()));
};

std::filesystem::path export_dir() {
  static const ExportDir kDir;
  return kDir.path;
}

}  // namespace

TEST(RoundTrip, ExportWritesOneFilePerActivity) {
  auto dir = export_dir();
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "activities")) {
    if (entry.path().extension() == ".md") ++files;
  }
  EXPECT_EQ(files, 38u);
  EXPECT_TRUE(std::filesystem::exists(dir / "activities" /
                                      "findsmallestcard.md"));
}

TEST(RoundTrip, LoadedRepositoryEqualsBuiltin) {
  auto loaded = core::Repository::load(export_dir());
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  const auto& from_disk = loaded.value().activities();
  auto builtin = core::Repository::builtin();
  ASSERT_EQ(from_disk.size(), builtin.activities().size());
  // Disk order is alphabetical by slug; compare by lookup.
  for (const auto& original : builtin.activities()) {
    const auto* parsed = loaded.value().find(original.slug);
    ASSERT_NE(parsed, nullptr) << original.slug;
    EXPECT_EQ(parsed->title, original.title);
    EXPECT_EQ(parsed->cs2013details, original.cs2013details);
    EXPECT_EQ(parsed->tcppdetails, original.tcppdetails);
    EXPECT_EQ(parsed->courses, original.courses);
    EXPECT_EQ(parsed->senses, original.senses);
    EXPECT_EQ(parsed->mediums, original.mediums);
    EXPECT_EQ(parsed->details, original.details);
    EXPECT_EQ(parsed->citations, original.citations);
  }
}

TEST(RoundTrip, LoadedRepositoryReproducesTableOne) {
  auto loaded = core::Repository::load(export_dir());
  ASSERT_TRUE(loaded.has_value());
  auto disk_rows = loaded.value().coverage().cs2013_table();
  auto builtin_rows = core::Repository::builtin().coverage().cs2013_table();
  ASSERT_EQ(disk_rows.size(), builtin_rows.size());
  for (std::size_t i = 0; i < disk_rows.size(); ++i) {
    EXPECT_EQ(disk_rows[i].covered_outcomes,
              builtin_rows[i].covered_outcomes);
    EXPECT_EQ(disk_rows[i].total_activities,
              builtin_rows[i].total_activities);
  }
}

TEST(RoundTrip, LoadedRepositoryIsPublishable) {
  auto loaded = core::Repository::load(export_dir());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(core::is_publishable(loaded.value().validate()));
}

TEST(RoundTrip, LoadRejectsMissingDirectory) {
  auto result = core::Repository::load("/nonexistent/content");
  EXPECT_FALSE(result.has_value());
}

TEST(RoundTrip, LoadRejectsCorruptActivity) {
  auto dir = std::filesystem::temp_directory_path() / "pdcu_corrupt_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "activities");
  {
    std::ofstream out(dir / "activities" / "bad.md");
    out << "---\ndate: 2020-01-01\n---\nno title\n";
  }
  auto result = core::Repository::load(dir);
  EXPECT_FALSE(result.has_value());
  std::filesystem::remove_all(dir);
}
