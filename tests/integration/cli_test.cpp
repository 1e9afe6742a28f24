// End-to-end tests of the `pdcu` command-line tool: real process spawns,
// exit codes, and output spot checks.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "pdcu/core/repository.hpp"
#include "pdcu/support/strings.hpp"

#ifndef PDCU_CLI_PATH
#define PDCU_CLI_PATH "./pdcu"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// Runs the CLI with the given arguments, capturing stdout.
CommandResult run_cli(const std::string& args) {
  CommandResult result;
  const std::string command = std::string(PDCU_CLI_PATH) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

bool contains(const std::string& haystack, const char* needle) {
  return pdcu::strings::contains(haystack, needle);
}

}  // namespace

TEST(Cli, ListEnumeratesTheCuration) {
  auto result = run_cli("list");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "findsmallestcard"));
  EXPECT_TRUE(contains(result.output, "ballotcounting"));
  // 38 lines, one per activity.
  EXPECT_EQ(pdcu::strings::split_lines(result.output).size(), 38u);
}

TEST(Cli, ShowRendersTheFigThreeHeader) {
  auto result = run_cli("show findsmallestcard");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "FindSmallestCard"));
  EXPECT_TRUE(contains(result.output, "[TCPP_Algorithms]"));
}

TEST(Cli, ShowUnknownSlugFails) {
  auto result = run_cli("show no-such-activity 2>/dev/null");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(Cli, TablesPrintBothPaperTables) {
  auto result = run_cli("tables");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "TABLE I"));
  EXPECT_TRUE(contains(result.output, "TABLE II"));
  EXPECT_TRUE(contains(result.output, "83.33%"));
  EXPECT_TRUE(contains(result.output, "51.35%"));
}

TEST(Cli, ValidateIsClean) {
  auto result = run_cli("validate");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "publishable: yes"));
}

TEST(Cli, RunExecutesASimulation) {
  auto result = run_cli("run juice_robots 7");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "oversweetened"));
}

TEST(Cli, RunUnknownSimulationListsAvailable) {
  auto result = run_cli("run warp_drive 2>&1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_TRUE(contains(result.output, "token_ring"));
}

TEST(Cli, PlanProducesASchedule) {
  auto result = run_cli("plan DSA 3");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "Lesson plan for DSA"));
  EXPECT_TRUE(contains(result.output, "3. "));
}

TEST(Cli, AuditReportsKnownDeadLinks) {
  auto result = run_cli("audit");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "known-dead: 3"));
}

TEST(Cli, NewPrintsAPrefilledTemplate) {
  auto result = run_cli("new ExampleActivity");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(contains(result.output, "title: \"ExampleActivity\""));
  EXPECT_TRUE(contains(result.output, "## Original Author/link"));
}

TEST(Cli, BadUsageReturnsTwo) {
  auto result = run_cli("frobnicate 2>/dev/null");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(Cli, CheckReportsHealthyAndDegradedContent) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pdcu_cli_check_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(pdcu::core::Repository::builtin().export_to(dir).has_value());

  auto healthy = run_cli("check " + dir.string());
  EXPECT_EQ(healthy.exit_code, 0);
  EXPECT_TRUE(contains(healthy.output, "38 of 38 activities loaded"));
  EXPECT_TRUE(contains(healthy.output, "content is healthy"));

  // Corrupt one file: check degrades to exit 1 and names the file.
  {
    std::ofstream out(dir / "activities" / "findsmallestcard.md",
                      std::ios::trunc);
    out << "---\ndate: 2020-01-01\n---\nno title\n";
  }
  auto degraded = run_cli("check " + dir.string());
  EXPECT_EQ(degraded.exit_code, 1);
  EXPECT_TRUE(contains(degraded.output, "37 of 38 activities loaded"));
  EXPECT_TRUE(contains(degraded.output, "findsmallestcard.md"));
  EXPECT_TRUE(contains(degraded.output, "[activity.title]"));

  auto usage = run_cli("check 2>/dev/null");
  EXPECT_EQ(usage.exit_code, 2);
}

TEST(Cli, CheckJsonEmitsTheMachineReadableLoadReport) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pdcu_cli_check_json_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(pdcu::core::Repository::builtin().export_to(dir).has_value());

  auto healthy = run_cli("check --json " + dir.string());
  EXPECT_EQ(healthy.exit_code, 0);
  EXPECT_TRUE(contains(healthy.output, "\"status\":\"ok\""));
  EXPECT_TRUE(contains(healthy.output, "\"loaded\":38"));
  EXPECT_TRUE(contains(healthy.output, "\"quarantined\":[]"));

  {
    std::ofstream out(dir / "activities" / "findsmallestcard.md",
                      std::ios::trunc);
    out << "---\ndate: 2020-01-01\n---\nno title\n";
  }
  auto degraded = run_cli("check --json " + dir.string());
  EXPECT_EQ(degraded.exit_code, 1);
  EXPECT_TRUE(contains(degraded.output, "\"status\":\"degraded\""));
  EXPECT_TRUE(contains(degraded.output, "\"slug\":\"findsmallestcard\""));
  EXPECT_TRUE(contains(degraded.output, "\"code\":\"activity.title\""));

  auto unknown = run_cli("check --frobnicate " + dir.string() +
                         " 2>/dev/null");
  EXPECT_EQ(unknown.exit_code, 2);
}

TEST(Cli, SearchAnIndexOfTheCurationResolvesFilters) {
  const auto path =
      std::filesystem::temp_directory_path() / "pdcu_cli_curation.idx";
  ASSERT_EQ(run_cli("index " + path.string() + " > /dev/null").exit_code, 0);
  const auto result = run_cli("search --index " + path.string() +
                              " course:CS1 --limit 50");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output, run_cli("search course:CS1 --limit 50").output);
  EXPECT_TRUE(contains(result.output, "of 38 activities matched"))
      << result.output;
  std::filesystem::remove(path);
}

TEST(Cli, SearchASyntheticIndexRefusesFiltersAndCountsItsDocuments) {
  const auto path =
      std::filesystem::temp_directory_path() / "pdcu_cli_synthetic.idx";
  ASSERT_EQ(run_cli("index " + path.string() +
                    " --synthetic 500 --seed 42 > /dev/null")
                .exit_code,
            0);
  // The file carries no taxonomy to resolve course:CS1 against.
  const auto filtered =
      run_cli("search --index " + path.string() + " course:CS1 2>&1");
  EXPECT_EQ(filtered.exit_code, 2) << filtered.output;
  EXPECT_TRUE(contains(filtered.output, "carries no taxonomy"))
      << filtered.output;
  // Free text ranks the file's own documents, and counts them.
  const auto text = run_cli("search --index " + path.string() + " message");
  EXPECT_EQ(text.exit_code, 0) << text.output;
  EXPECT_TRUE(contains(text.output, "of 500 activities matched"))
      << text.output;
  std::filesystem::remove(path);
}
