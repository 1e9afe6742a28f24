// FaultInjector: the fs hooks fire deterministically (same config, same
// sequence of fs calls -> same failure sequence), windows (skip/limit)
// behave, every mode maps to the right error, and ScopedFaultInjection
// cannot leak faults past its scope.
#include "pdcu/support/fault.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "pdcu/support/fs.hpp"

namespace fs = pdcu::fs;

namespace {

std::filesystem::path temp_dir() {
  auto dir = std::filesystem::temp_directory_path() / "pdcu_fault_test";
  std::filesystem::create_directories(dir);
  return dir;
}

std::filesystem::path sample_file() {
  auto path = temp_dir() / "sample.txt";
  EXPECT_TRUE(fs::write_file(path, "0123456789"));
  return path;
}

/// Reads `path` `n` times and records, per read, whether it succeeded.
std::vector<bool> read_outcomes(const std::filesystem::path& path, int n) {
  std::vector<bool> outcomes;
  for (int i = 0; i < n; ++i) {
    outcomes.push_back(fs::read_file(path).has_value());
  }
  return outcomes;
}

}  // namespace

TEST(FaultInjector, NoInjectorMeansNoFaults) {
  const auto path = sample_file();
  EXPECT_EQ(fs::installed_fault_injector(), nullptr);
  EXPECT_EQ(fs::read_file(path).value(), "0123456789");
}

TEST(FaultInjector, FailsTheNthReadDeterministically) {
  const auto path = sample_file();
  const auto run_once = [&path] {
    fs::FaultInjector injector;
    injector.add_rule({.path_substring = "sample.txt",
                       .mode = fs::FaultInjector::Mode::kIoError,
                       .skip = 2,
                       .limit = 1});
    fs::ScopedFaultInjection scope(injector);
    return read_outcomes(path, 5);
  };
  const std::vector<bool> expected = {true, true, false, true, true};
  EXPECT_EQ(run_once(), expected);
  // Same config, same call sequence, same failure sequence.
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultInjector, OpenAndIoErrorsCarryTheFsErrorCodes) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "sample.txt",
                     .mode = fs::FaultInjector::Mode::kOpenError,
                     .limit = 1});
  injector.add_rule({.path_substring = "sample.txt",
                     .mode = fs::FaultInjector::Mode::kIoError});
  fs::ScopedFaultInjection scope(injector);
  auto first = fs::read_file(path);
  ASSERT_FALSE(first.has_value());
  EXPECT_EQ(first.error().code, "fs.open");
  auto second = fs::read_file(path);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, "fs.read");
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(FaultInjector, TruncateDeliversAPrefix) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "sample.txt",
                     .mode = fs::FaultInjector::Mode::kTruncate,
                     .truncate_to = 4});
  fs::ScopedFaultInjection scope(injector);
  auto content = fs::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(content.value(), "0123");
}

TEST(FaultInjector, LatencyModeDelaysButSucceeds) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "sample.txt",
                     .mode = fs::FaultInjector::Mode::kLatency,
                     .latency = std::chrono::milliseconds(30)});
  fs::ScopedFaultInjection scope(injector);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(fs::read_file(path).value(), "0123456789");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(FaultInjector, EmptySubstringMatchesEveryPath) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule(
      {.path_substring = "", .mode = fs::FaultInjector::Mode::kIoError});
  fs::ScopedFaultInjection scope(injector);
  EXPECT_FALSE(fs::read_file(path).has_value());
}

TEST(FaultInjector, NonMatchingPathsPassThrough) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "some-other-file",
                     .mode = fs::FaultInjector::Mode::kIoError});
  fs::ScopedFaultInjection scope(injector);
  EXPECT_TRUE(fs::read_file(path).has_value());
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(FaultInjector, ListFilesCanBeMadeToFail) {
  const auto dir = temp_dir();
  fs::FaultInjector injector;
  injector.add_rule({.path_substring = "pdcu_fault_test",
                     .mode = fs::FaultInjector::Mode::kOpenError});
  fs::ScopedFaultInjection scope(injector);
  auto files = fs::list_stamped(dir, ".txt");
  ASSERT_FALSE(files.has_value());
  EXPECT_EQ(files.error().code, "fs.listdir");
}

TEST(FaultInjector, ClearRemovesAllRules) {
  const auto path = sample_file();
  fs::FaultInjector injector;
  injector.add_rule(
      {.path_substring = "", .mode = fs::FaultInjector::Mode::kIoError});
  fs::ScopedFaultInjection scope(injector);
  EXPECT_FALSE(fs::read_file(path).has_value());
  injector.clear();
  EXPECT_TRUE(fs::read_file(path).has_value());
}

TEST(FaultInjector, ScopedInjectionUninstallsOnExit) {
  const auto path = sample_file();
  {
    fs::FaultInjector injector;
    injector.add_rule(
      {.path_substring = "", .mode = fs::FaultInjector::Mode::kIoError});
    fs::ScopedFaultInjection scope(injector);
    EXPECT_FALSE(fs::read_file(path).has_value());
  }
  EXPECT_EQ(fs::installed_fault_injector(), nullptr);
  EXPECT_TRUE(fs::read_file(path).has_value());
}
