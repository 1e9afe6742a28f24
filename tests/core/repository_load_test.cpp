// Lenient loading with quarantine: Repository::load_lenient parses every
// content file, quarantines the malformed ones with structured
// diagnostics (sorted by path, deterministic at any pool size), and still
// produces a serving Repository from the healthy remainder. The strict
// load aggregates *all* failures into one error instead of an arbitrary
// first.
#include "pdcu/core/repository.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/support/fault.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/slug.hpp"
#include "pdcu/support/strings.hpp"
#include "pdcu/taxonomy/term_index.hpp"

namespace core = pdcu::core;
namespace fs = pdcu::fs;
namespace strs = pdcu::strings;
namespace tax = pdcu::tax;

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

/// Every term of every taxonomy with its pages (slug and title, in
/// order), plus the page count: all that terms()/pages() can tell apart.
std::vector<std::string> describe(const tax::TermIndex& index) {
  std::vector<std::string> lines;
  for (const auto& taxonomy : index.config().all()) {
    for (const auto& term : index.terms(taxonomy.key)) {
      std::string line = taxonomy.key + ":" + term + " ->";
      for (const auto& page : index.pages(taxonomy.key, term)) {
        line += " " + page.slug + "|" + page.title;
      }
      lines.push_back(std::move(line));
    }
  }
  lines.push_back("pages " + std::to_string(index.page_count()));
  return lines;
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
  core::LoadReport cold = core::Repository::load_lenient(list(), cache);
  EXPECT_EQ(cold.files_parsed, 38u);
  EXPECT_EQ(cold.files_reused, 0u);
  EXPECT_EQ(cache.size(), 38u);
  const std::vector<core::Activity> activities = cold.repository.activities();
  for (std::size_t i = 0; i < activities.size(); ++i) {
    EXPECT_EQ(cold.repository.fingerprint(i),
              core::activity_fingerprint(activities[i]));
  }

  // Each repository goes back to the cache once read, as a reloading
  // server hands back the one it served.
  cache.hand_back(std::move(cold.repository));
  core::LoadReport warm = core::Repository::load_lenient(list(), cache);
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
  cache.hand_back(std::move(warm.repository));
  core::LoadReport edit = core::Repository::load_lenient(list(), cache);
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
  cache.hand_back(std::move(edit.repository));
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
    auto faulted = core::Repository::load_lenient(files.value(), cache);
    EXPECT_EQ(faulted.quarantined_slugs(),
              std::vector<std::string>{"findsmallestcard"});
    cache.hand_back(std::move(faulted.repository));
  }
  const auto healed = core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(healed.files_parsed, 1u);
  EXPECT_FALSE(healed.degraded());
}

TEST(LoadCache, SharesTheTermIndexOnlyWhileTheTaxonomyHolds) {
  auto dir = fresh_content_dir("pdcu_load_cache_term_index");
  const auto path_of = [&dir](const std::string& slug) {
    return dir / "activities" / (slug + ".md");
  };
  auto stamp = std::filesystem::file_time_type::clock::now();
  const auto write = [&](const std::filesystem::path& path,
                         const core::Activity& activity) {
    ASSERT_TRUE(fs::write_file(path, core::write_activity(activity)));
    stamp += std::chrono::seconds(2);
    std::filesystem::last_write_time(path, stamp);
  };
  core::LoadCache cache;
  core::LoadReport previous;
  const auto load = [&dir, &cache, &previous] {
    // The previous repository is done with: it goes back to the cache,
    // which takes its activities and leaves its index and fingerprints.
    cache.hand_back(std::move(previous.repository));
    auto files = core::list_content(dir);
    EXPECT_TRUE(files.has_value());
    core::LoadReport report =
        core::Repository::load_lenient(files.value(), cache);
    EXPECT_FALSE(report.degraded());
    return report;
  };
  previous = load();
  std::vector<core::Activity> current = previous.repository.activities();
  const auto find = [&current](const std::string& slug) -> core::Activity& {
    const auto it =
        std::find_if(current.begin(), current.end(),
                     [&slug](const core::Activity& a) { return a.slug == slug; });
    EXPECT_NE(it, current.end()) << slug;
    return *it;
  };

  // A body-only edit keeps every slug, title and tag: the index is shared.
  core::Activity& body = find("findsmallestcard");
  body.details += "\n\nEdited body.";
  write(path_of(body.slug), body);
  core::LoadReport shared = load();
  EXPECT_EQ(shared.files_parsed, 1u);
  EXPECT_EQ(shared.repository.taxonomy_fingerprint(),
            previous.repository.taxonomy_fingerprint());
  EXPECT_EQ(shared.repository.shared_index(),
            previous.repository.shared_index());
  EXPECT_EQ(describe(shared.repository.index()),
            describe(core::Repository(shared.repository.activities()).index()));
  previous = std::move(shared);

  // Every other edit moves the index: it must be rebuilt, and equal the
  // index a cold repository over the same activities builds.
  const auto expect_fresh = [&](const std::string& what) {
    SCOPED_TRACE(what);
    core::LoadReport next = load();
    EXPECT_NE(next.repository.taxonomy_fingerprint(),
              previous.repository.taxonomy_fingerprint());
    EXPECT_NE(next.repository.shared_index(),
              previous.repository.shared_index());
    EXPECT_EQ(
        describe(next.repository.index()),
        describe(core::Repository(next.repository.activities()).index()));
    previous = std::move(next);
  };

  // One toggled term in each of the seven tag lists: a term some other
  // activity carries is added to the first activity that lacks it.
  using List = std::vector<std::string> core::Activity::*;
  const std::vector<std::pair<std::string, List>> lists = {
      {"cs2013", &core::Activity::cs2013},
      {"cs2013details", &core::Activity::cs2013details},
      {"tcpp", &core::Activity::tcpp},
      {"tcppdetails", &core::Activity::tcppdetails},
      {"courses", &core::Activity::courses},
      {"senses", &core::Activity::senses},
      {"medium", &core::Activity::mediums},
  };
  for (const auto& [name, list] : lists) {
    bool toggled = false;
    for (std::size_t donor = 0; donor < current.size() && !toggled; ++donor) {
      for (const auto& term : current[donor].*list) {
        const auto lacks = std::find_if(
            current.begin(), current.end(), [&](const core::Activity& a) {
              const auto& terms = a.*list;
              return std::find(terms.begin(), terms.end(), term) ==
                     terms.end();
            });
        if (lacks == current.end()) continue;
        ((*lacks).*list).push_back(term);
        write(path_of(lacks->slug), *lacks);
        toggled = true;
        break;
      }
    }
    ASSERT_TRUE(toggled) << name;
    expect_fresh("toggle a " + name + " term");
  }

  // A title edit that keeps the slug.
  core::Activity& titled = find("sortingnetworks");
  std::transform(titled.title.begin(), titled.title.end(),
                 titled.title.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  ASSERT_EQ(pdcu::slugify(titled.title), titled.slug);
  write(path_of(titled.slug), titled);
  expect_fresh("title edit");

  // An added activity.
  core::Activity added = current.front();
  added.title = "Added Activity";
  added.slug = pdcu::slugify(added.title);
  write(path_of(added.slug), added);
  current.push_back(added);
  expect_fresh("add");

  // A deleted activity.
  std::filesystem::remove(path_of(added.slug));
  current.pop_back();
  expect_fresh("delete");

  // A rename: a new title, hence a new slug and file.
  core::Activity& renamed = find("findsmallestcard");
  std::filesystem::remove(path_of(renamed.slug));
  renamed.title = "Zz Renamed Card";
  renamed.slug = pdcu::slugify(renamed.title);
  write(path_of(renamed.slug), renamed);
  expect_fresh("rename");
}

namespace {

/// Every activity's canonical text and carried fingerprint, in order.
std::vector<std::string> describe(const core::Repository& repo) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < repo.activities().size(); ++i) {
    lines.push_back(core::write_activity(repo.activities()[i]) + "#" +
                    std::to_string(repo.fingerprint(i)));
  }
  return lines;
}

}  // namespace

TEST(LoadCache, AHandedBackRepositoryIsMovedNotReparsed) {
  auto dir = fresh_content_dir("pdcu_load_cache_hand_back");
  auto files = core::list_content(dir);
  ASSERT_TRUE(files.has_value());
  auto cold_load = core::Repository::load_lenient(dir);
  ASSERT_TRUE(cold_load.has_value());
  const std::vector<std::string> cold = describe(cold_load.value().repository);

  core::LoadCache cache;
  core::LoadReport first = core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(first.files_parsed, 38u);
  EXPECT_EQ(describe(first.repository), cold);

  cache.hand_back(std::move(first.repository));
  EXPECT_TRUE(first.repository.activities().empty());
  core::LoadReport moved = core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(moved.files_parsed, 0u);
  EXPECT_EQ(moved.files_reused, 38u);
  EXPECT_EQ(describe(moved.repository), cold);
}

TEST(LoadCache, WithoutAHandBackEveryFileIsParsedAgain) {
  auto dir = fresh_content_dir("pdcu_load_cache_no_hand_back");
  auto files = core::list_content(dir);
  ASSERT_TRUE(files.has_value());
  core::LoadCache cache;
  const core::LoadReport first =
      core::Repository::load_lenient(files.value(), cache);
  const std::vector<std::string> cold = describe(first.repository);

  // The last repository is still held: nothing can be moved out of it.
  const core::LoadReport again =
      core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(again.files_parsed, 38u);
  EXPECT_EQ(again.files_reused, 0u);
  EXPECT_EQ(describe(again.repository), cold);
  EXPECT_EQ(describe(first.repository), cold);
}

TEST(LoadCache, AnotherRepositoryHandedBackIsIgnored) {
  auto dir = fresh_content_dir("pdcu_load_cache_wrong_hand_back");
  auto files = core::list_content(dir);
  ASSERT_TRUE(files.has_value());
  core::LoadCache cache;
  core::LoadReport first = core::Repository::load_lenient(files.value(), cache);
  const std::vector<std::string> cold = describe(first.repository);

  // One activity short: the wrong size.
  std::vector<core::Activity> fewer = first.repository.activities();
  fewer.pop_back();
  core::Repository smaller(std::move(fewer));
  cache.hand_back(std::move(smaller));
  EXPECT_EQ(smaller.activities().size(), 37u);  // not taken
  core::LoadReport after_smaller =
      core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(after_smaller.files_parsed, 38u);
  EXPECT_EQ(describe(after_smaller.repository), cold);

  // The right size, but a copy of the one the load built.
  core::Repository copy = after_smaller.repository;
  cache.hand_back(std::move(copy));
  EXPECT_EQ(copy.activities().size(), 38u);  // not taken
  const core::LoadReport after_copy =
      core::Repository::load_lenient(files.value(), cache);
  EXPECT_EQ(after_copy.files_parsed, 38u);
  EXPECT_EQ(describe(after_copy.repository), cold);
}
