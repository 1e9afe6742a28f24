#include "pdcu/core/annotate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "pdcu/core/repository.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace core = pdcu::core;

namespace {

/// A fresh on-disk export of the curation per test.
std::filesystem::path fresh_content_dir(const char* name) {
  auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  auto repo = core::Repository::builtin();
  EXPECT_TRUE(repo.export_to(dir).has_value());
  return dir;
}

}  // namespace

TEST(Annotate, AppendsAClassroomExperience) {
  auto dir = fresh_content_dir("pdcu_annotate_assessment");
  auto status = core::annotate_assessment(
      dir, "findsmallestcard",
      "Ran with 24 first-years; the log2 rounds discussion landed well.");
  ASSERT_TRUE(status.has_value()) << status.error().message;

  auto reloaded = core::Repository::load(dir);
  ASSERT_TRUE(reloaded.has_value());
  const auto* activity = reloaded.value().find("findsmallestcard");
  ASSERT_NE(activity, nullptr);
  EXPECT_TRUE(pdcu::strings::contains(
      activity->assessment, "Classroom experience: Ran with 24"));
  // The prior assessment text is preserved in front of the note.
  EXPECT_TRUE(pdcu::strings::starts_with(activity->assessment,
                                         "No formal assessment"));
  std::filesystem::remove_all(dir);
}

TEST(Annotate, EveryOtherFieldSurvivesTheRewrite) {
  auto dir = fresh_content_dir("pdcu_annotate_fields");
  ASSERT_TRUE(
      core::annotate_assessment(dir, "concerttickets", "worked great")
          .has_value());
  auto reloaded = core::Repository::load(dir);
  ASSERT_TRUE(reloaded.has_value());
  const auto* after = reloaded.value().find("concerttickets");
  const auto builtin = core::Repository::builtin();
  const auto* before = builtin.find("concerttickets");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->cs2013details, before->cs2013details);
  EXPECT_EQ(after->tcppdetails, before->tcppdetails);
  EXPECT_EQ(after->details, before->details);
  EXPECT_EQ(after->citations, before->citations);
  EXPECT_EQ(after->variations, before->variations);
  std::filesystem::remove_all(dir);
}

TEST(Annotate, AnnotatedCurationStillReproducesTableOne) {
  auto dir = fresh_content_dir("pdcu_annotate_tables");
  ASSERT_TRUE(core::annotate_assessment(dir, "gardenersandsharedwork", "note")
                  .has_value());
  auto reloaded = core::Repository::load(dir);
  ASSERT_TRUE(reloaded.has_value());
  auto rows = reloaded.value().coverage().cs2013_table();
  EXPECT_EQ(rows[1].total_activities, 21u);  // Parallel Decomposition
  std::filesystem::remove_all(dir);
}

TEST(Annotate, AddsAVariation) {
  auto dir = fresh_content_dir("pdcu_annotate_variation");
  auto status = core::annotate_variation(
      dir, "tokenring" /* wrong slug on purpose */, "X", "Y");
  EXPECT_FALSE(status.has_value());  // unknown slug -> read error

  ASSERT_TRUE(core::annotate_variation(dir, "selfstabilizingtokenring",
                                       "Seated variant (2020)",
                                       "Cards on desks instead of hands.")
                  .has_value());
  auto reloaded = core::Repository::load(dir);
  ASSERT_TRUE(reloaded.has_value());
  const auto* activity =
      reloaded.value().find("selfstabilizingtokenring");
  ASSERT_NE(activity, nullptr);
  ASSERT_EQ(activity->variations.size(), 1u);
  EXPECT_EQ(activity->variations[0].name, "Seated variant (2020)");
  std::filesystem::remove_all(dir);
}

TEST(Annotate, RejectsEmptyNotes) {
  auto dir = fresh_content_dir("pdcu_annotate_empty");
  EXPECT_FALSE(core::annotate_assessment(dir, "gardenersandsharedwork", "").has_value());
  EXPECT_FALSE(
      core::annotate_variation(dir, "gardenersandsharedwork", "", "desc").has_value());
  std::filesystem::remove_all(dir);
}

TEST(Annotate, ReplacesTheFileSoAnOpenReaderKeepsTheOldBytes) {
  // A watching server may have the activity open while the author
  // annotates it: it must read the old file or the new one, never a
  // truncated one.
  auto dir = fresh_content_dir("pdcu_annotate_replace");
  const auto activities = dir / "activities";
  const auto path = activities / "findsmallestcard.md";
  const auto before = pdcu::fs::read_file(path);
  ASSERT_TRUE(before.has_value());
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader.is_open());

  ASSERT_TRUE(
      core::annotate_assessment(dir, "findsmallestcard", "a replaced file")
          .has_value());

  const std::string seen((std::istreambuf_iterator<char>(reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(seen, before.value());
  const auto after = pdcu::fs::read_file(path);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(pdcu::strings::contains(after.value(), "a replaced file"));
  for (const auto& entry : std::filesystem::directory_iterator(activities)) {
    EXPECT_FALSE(pdcu::strings::contains(entry.path().filename().string(),
                                         ".tmp."))
        << entry.path();
  }
  std::filesystem::remove_all(dir);
}
