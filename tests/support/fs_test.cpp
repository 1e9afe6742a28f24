#include "pdcu/support/fs.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace fs = pdcu::fs;

namespace {

std::filesystem::path temp_dir() {
  auto dir = std::filesystem::temp_directory_path() / "pdcu_fs_test";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

TEST(Fs, WriteThenReadRoundTrips) {
  auto path = temp_dir() / "roundtrip.txt";
  ASSERT_TRUE(fs::write_file(path, "hello\nworld\n"));
  auto content = fs::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(content.value(), "hello\nworld\n");
}

TEST(Fs, WriteCreatesParentDirectories) {
  auto path = temp_dir() / "a" / "b" / "c.txt";
  std::filesystem::remove_all(temp_dir() / "a");
  ASSERT_TRUE(fs::write_file(path, "x"));
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(Fs, WriteReplacesExistingContent) {
  auto path = temp_dir() / "replace.txt";
  ASSERT_TRUE(fs::write_file(path, "old content that is long"));
  ASSERT_TRUE(fs::write_file(path, "new"));
  EXPECT_EQ(fs::read_file(path).value(), "new");
}

TEST(Fs, ReadMissingFileFails) {
  auto result = fs::read_file(temp_dir() / "does-not-exist.txt");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "fs.open");
}

TEST(Fs, ListFilesFiltersByExtensionAndSorts) {
  auto dir = temp_dir() / "listing";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(fs::write_file(dir / "b.md", "b"));
  ASSERT_TRUE(fs::write_file(dir / "a.md", "a"));
  ASSERT_TRUE(fs::write_file(dir / "c.txt", "c"));
  auto files = fs::list_stamped(dir, ".md");
  ASSERT_TRUE(files.has_value());
  ASSERT_EQ(files.value().size(), 2u);
  EXPECT_EQ(files.value()[0].path.filename(), "a.md");
  EXPECT_EQ(files.value()[1].path.filename(), "b.md");
}

TEST(Fs, ListMissingDirectoryFails) {
  auto files = fs::list_stamped(temp_dir() / "missing-dir", ".md");
  EXPECT_FALSE(files.has_value());
}

TEST(Fs, ListMissingDirectoryErrorNamesThePath) {
  auto files = fs::list_stamped(temp_dir() / "missing-dir", ".md");
  ASSERT_FALSE(files.has_value());
  EXPECT_EQ(files.error().code, "fs.listdir");
  EXPECT_NE(files.error().message.find("missing-dir"), std::string::npos);
}

TEST(Fs, ListEmptyDirectorySucceedsWithNoFiles) {
  auto dir = temp_dir() / "empty";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto files = fs::list_stamped(dir, ".md");
  ASSERT_TRUE(files.has_value());
  EXPECT_TRUE(files.value().empty());
}

TEST(Fs, ListingFollowsPathExtensionAndByteOrder) {
  auto dir = temp_dir() / "parity";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "sub.md");  // a directory
  ASSERT_TRUE(fs::write_file(dir / "target.md", "target"));
  std::filesystem::create_symlink("target.md", dir / "link.md");
  std::filesystem::create_symlink("missing.md", dir / "dangling.md");
  for (const char* name : {"notes.txt", ".hidden.md", ".md", "B.md",
                           "a-b.md", "a.md"}) {
    ASSERT_TRUE(fs::write_file(dir / name, name));
  }
  // path::extension() gives ".md" no extension and ".hidden.md" one; the
  // order is by bytes, not by locale.
  const std::vector<std::filesystem::path> expected = {
      dir / ".hidden.md", dir / "B.md",    dir / "a-b.md",
      dir / "a.md",       dir / "link.md", dir / "target.md"};
  // Each listed file is stamped by one stat that follows symlinks.
  auto stamped = fs::list_stamped(dir, ".md");
  ASSERT_TRUE(stamped.has_value());
  ASSERT_EQ(stamped.value().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& file = stamped.value()[i];
    EXPECT_EQ(file.path, expected[i]);
    EXPECT_TRUE(file.stat_ok) << file.path;
    EXPECT_EQ(file.size, std::filesystem::file_size(file.path)) << file.path;
  }
  EXPECT_EQ(stamped.value()[4].size, std::string("target").size());
}

TEST(Fs, ListingKeepsASymlinkLoopUnstamped) {
  auto dir = temp_dir() / "loop";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(fs::write_file(dir / "a.md", "a"));
  std::filesystem::create_symlink("loop.md", dir / "loop.md");
  auto stamped = fs::list_stamped(dir, ".md");
  ASSERT_TRUE(stamped.has_value());
  ASSERT_EQ(stamped.value().size(), 2u);
  EXPECT_TRUE(stamped.value()[0].stat_ok);
  EXPECT_EQ(stamped.value()[1].path, dir / "loop.md");
  EXPECT_FALSE(stamped.value()[1].stat_ok);
  // Reading it is where the loop surfaces, as an error.
  EXPECT_FALSE(fs::read_file(dir / "loop.md").has_value());
}

TEST(Fs, ReadErrorNamesThePath) {
  auto result = fs::read_file(temp_dir() / "gone" / "missing.txt");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, "fs.open");
  EXPECT_NE(result.error().message.find("missing.txt"), std::string::npos);
}

TEST(Fs, WriteIntoAnUnwritableTargetFails) {
  // A path whose "parent directory" is a regular file cannot be created.
  auto blocker = temp_dir() / "blocker.txt";
  ASSERT_TRUE(fs::write_file(blocker, "x"));
  auto status = fs::write_file(blocker / "child.txt", "y");
  EXPECT_FALSE(status.has_value());
}
