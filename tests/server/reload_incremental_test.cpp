// Incremental reload against a cold build: a seeded sequence of content
// edits goes through ReloadManager::check_once, which carries the parse
// memo, build cache, index cache and previous snapshot from one reload to
// the next. After every step the served snapshot must equal, byte for
// byte, a cold build_site + SearchIndex::build + Router over the same
// directory: every cached body, ETag and header block, the catalog and
// activity JSON, the index payload, and the answers to a fixed set of
// searches.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/rng.hpp"
#include "pdcu/support/slug.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace search = pdcu::search;
namespace fs = pdcu::fs;

namespace {

constexpr const char* kQueries[] = {
    "message passing", "sorting", "race condition", "byzantine generals",
    "course:CS2",      "revision", "parallel cs2013:PD-Algorithms",
    "added activity"};

server::Request get(const std::string& target) {
  server::Request request;
  request.method = "GET";
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

/// The content directory and its editor. Every write stamps the file with
/// a strictly later mtime, as real edits seconds apart would: the listing
/// is what the reload trusts, and a coarse filesystem clock could give two
/// quick edits of one file the same mtime.
class Content {
 public:
  explicit Content(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    EXPECT_TRUE(core::Repository::builtin().export_to(dir_).has_value());
    clock_ = std::filesystem::file_time_type::clock::now();
  }
  ~Content() { std::filesystem::remove_all(dir_); }

  const std::filesystem::path& dir() const { return dir_; }

  std::vector<std::filesystem::path> files() const {
    auto listed = fs::list_stamped(dir_ / "activities", ".md");
    EXPECT_TRUE(listed.has_value());
    std::vector<std::filesystem::path> paths;
    for (auto& file : listed.value()) paths.push_back(std::move(file.path));
    return paths;
  }

  core::Activity read(const std::filesystem::path& path) const {
    auto text = fs::read_file(path);
    EXPECT_TRUE(text.has_value());
    auto activity = core::parse_activity(text.value());
    EXPECT_TRUE(activity.has_value()) << path;
    return activity.value();
  }

  void write(const std::filesystem::path& path, const std::string& text) {
    EXPECT_TRUE(fs::write_file(path, text).has_value());
    restamp(path);
  }

  void restamp(const std::filesystem::path& path) {
    clock_ += std::chrono::seconds(2);
    std::filesystem::last_write_time(path, clock_);
  }

  std::filesystem::path path_for(const std::string& slug) const {
    return dir_ / "activities" / (slug + ".md");
  }

 private:
  std::filesystem::path dir_;
  std::filesystem::file_time_type clock_;
};

/// A served stack exactly as `pdcu serve --watch` wires it: a cold start
/// through a BuildCache, then a ReloadManager driven by check_once.
struct Served {
  explicit Served(const std::filesystem::path& dir) {
    auto loaded = core::Repository::load_lenient(dir);
    EXPECT_TRUE(loaded.has_value());
    const core::Repository& repo = loaded.value().repository;
    site::Site built = site::rebuild(repo, cache, {});
    http = std::make_unique<server::HttpServer>(server::Router(
        built, repo, search::SearchIndex::build(repo)));
    auto fingerprint = server::content_fingerprint(dir);
    EXPECT_TRUE(fingerprint.has_value());
    manager = std::make_unique<server::ReloadManager>(
        dir, *http, health, metrics, std::move(cache), fingerprint.value(),
        server::ReloadOptions{.backoff_initial =
                                  std::chrono::milliseconds(0)});
  }

  site::BuildCache cache;
  server::HealthTracker health;
  server::ReloadMetrics metrics;
  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<server::ReloadManager> manager;
};

/// Byte-for-byte comparison of the served snapshot with a cold build of
/// the same directory.
void expect_matches_cold_build(const server::Router& served,
                               const std::filesystem::path& dir,
                               const std::string& step) {
  SCOPED_TRACE(step);
  auto loaded = core::Repository::load_lenient(dir);
  ASSERT_TRUE(loaded.has_value());
  const core::Repository& repo = loaded.value().repository;
  const site::Site built = site::build_site(repo);
  const server::Router cold(built, repo, search::SearchIndex::build(repo));

  ASSERT_EQ(served.cache().size(), cold.cache().size());
  EXPECT_EQ(served.cache().total_bytes(), cold.cache().total_bytes());
  std::vector<std::string> paths;
  for (const auto& page : built.pages) paths.push_back(page.path);
  paths.push_back("api/catalog.json");
  for (const auto& activity : repo.activities()) {
    paths.push_back("api/activities/" + activity.slug + ".json");
  }
  for (const auto& path : paths) {
    const server::CachedEntry* want = cold.cache().find("/" + path);
    const server::CachedEntry* got = served.cache().find("/" + path);
    ASSERT_NE(want, nullptr) << path;
    ASSERT_NE(got, nullptr) << path;
    EXPECT_EQ(got->body, want->body) << path;
    EXPECT_EQ(got->etag, want->etag) << path;
    EXPECT_EQ(got->content_type, want->content_type) << path;
    EXPECT_EQ(got->head_200, want->head_200) << path;
    EXPECT_EQ(got->head_304, want->head_304) << path;
  }

  EXPECT_TRUE(served.index() == cold.index());
  for (const char* query : kQueries) {
    const std::string target =
        "/api/search?q=" + std::string(query) + "&limit=10";
    const server::Response want = cold.handle(get(target));
    const server::Response got = served.handle(get(target));
    EXPECT_EQ(got.status, want.status) << query;
    EXPECT_EQ(got.body, want.body) << query;
  }
}

enum class Edit {
  kBody,
  kCourseToggle,
  kAdd,
  kDelete,
  kRename,
  kQuarantineThenHeal,
  kSameSizeRewrite,
};

}  // namespace

TEST(ReloadIncremental, SeededEditsServeWhatAColdBuildWould) {
  Content content("pdcu_reload_incremental");
  Served served(content.dir());
  pdcu::Rng rng(20240611);

  // Every kind of edit three times, in a seeded order.
  std::vector<Edit> edits;
  for (int round = 0; round < 3; ++round) {
    for (Edit edit : {Edit::kBody, Edit::kCourseToggle, Edit::kAdd,
                      Edit::kDelete, Edit::kRename,
                      Edit::kQuarantineThenHeal, Edit::kSameSizeRewrite}) {
      edits.push_back(edit);
    }
  }
  rng.shuffle(edits);

  const std::vector<std::string> courses = {"CS0", "CS1", "CS2", "DSA",
                                            "Systems"};
  int added = 0;
  const auto reload = [&](const std::string& step) {
    ASSERT_EQ(served.manager->check_once(),
              server::ReloadManager::Step::kReloaded)
        << step;
    expect_matches_cold_build(*served.http->router(), content.dir(), step);
  };

  for (std::size_t n = 0; n < edits.size(); ++n) {
    const auto files = content.files();
    ASSERT_FALSE(files.empty());
    const std::filesystem::path path = files[rng.below(files.size())];
    core::Activity activity = content.read(path);
    const std::string step = "step " + std::to_string(n) + " on " +
                             path.filename().string();
    switch (edits[n]) {
      case Edit::kBody:
        activity.details += "\n\nRevision " + std::to_string(n) + ".";
        content.write(path, core::write_activity(activity));
        reload(step + " (body edit)");
        break;
      case Edit::kCourseToggle: {
        const std::string& course = courses[rng.below(courses.size())];
        auto& tags = activity.courses;
        const auto at = std::find(tags.begin(), tags.end(), course);
        if (at == tags.end()) {
          tags.push_back(course);
        } else {
          tags.erase(at);
        }
        content.write(path, core::write_activity(activity));
        reload(step + " (course toggle " + course + ")");
        break;
      }
      case Edit::kAdd:
        activity.title += " Added Activity " + std::to_string(++added);
        activity.details += "\n\nAn added activity.";
        content.write(content.path_for(pdcu::slugify(activity.title)),
                      core::write_activity(activity));
        reload(step + " (file added)");
        break;
      case Edit::kDelete:
        std::filesystem::remove(path);
        reload(step + " (file deleted)");
        break;
      case Edit::kRename: {
        activity.title += " Renamed " + std::to_string(n);
        std::filesystem::remove(path);
        content.write(content.path_for(pdcu::slugify(activity.title)),
                      core::write_activity(activity));
        reload(step + " (slug rename)");
        break;
      }
      case Edit::kQuarantineThenHeal: {
        const std::string good = core::write_activity(activity);
        content.write(path, "---\ndate: 2020-01-01\n---\nno title\n");
        reload(step + " (quarantined)");
        EXPECT_TRUE(served.health.degraded());
        content.write(path, good);
        reload(step + " (healed)");
        EXPECT_FALSE(served.health.degraded());
        break;
      }
      case Edit::kSameSizeRewrite: {
        // Swap one letter of the details for another: the size holds and
        // only the mtime says the file changed.
        std::string text = core::write_activity(activity);
        const std::string& prose = !activity.details.empty()
                                       ? activity.details
                                       : activity.accessibility;
        ASSERT_FALSE(prose.empty());
        const std::size_t at = text.find(prose.substr(0, 8));
        ASSERT_NE(at, std::string::npos);
        const std::size_t size = text.size();
        text[at] = text[at] == 'Q' ? 'X' : 'Q';
        ASSERT_EQ(text.size(), size);
        content.write(path, text);
        reload(step + " (same-size rewrite)");
        break;
      }
    }
    if (HasFatalFailure()) return;
  }
  // Nothing changed since the last step: the next poll is idle.
  EXPECT_EQ(served.manager->check_once(), server::ReloadManager::Step::kIdle);
}

TEST(ReloadIncremental, OneEditReparsesRetokenizesAndRebuildsOnlyItsOwn) {
  Content content("pdcu_reload_incremental_reuse");
  Served served(content.dir());
  const auto files = content.files();
  const std::size_t total = files.size();

  // The first reload starts with empty memos, so it does a cold build's
  // work; the manager's page cache came from the served build.
  core::Activity first = content.read(files[0]);
  first.details += "\n\nFirst revision.";
  content.write(files[0], core::write_activity(first));
  ASSERT_EQ(served.manager->check_once(),
            server::ReloadManager::Step::kReloaded);

  // The second reload touches one body: one file parsed, one document
  // tokenized, and only its page, its JSON and the catalog rebuilt.
  core::Activity second = content.read(files[1]);
  second.details += "\n\nSecond revision.";
  content.write(files[1], core::write_activity(second));
  ASSERT_EQ(served.manager->check_once(),
            server::ReloadManager::Step::kReloaded);
  const std::string metrics = served.metrics.render_text();
  EXPECT_NE(metrics.find("pdcu_reload_files_parsed_last 1\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("pdcu_reload_files_reused_last " +
                         std::to_string(total - 1) + "\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("pdcu_reload_docs_tokenized_last 1\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("pdcu_reload_docs_reused_last " +
                         std::to_string(total - 1) + "\n"),
            std::string::npos)
      << metrics;
  // The activity page, the catalog (index.json and its api alias) and the
  // activity JSON.
  EXPECT_NE(metrics.find("pdcu_reload_cache_entries_rebuilt_last 4\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("pdcu_reload_pages_rendered_last 2\n"),
            std::string::npos)
      << metrics;
  expect_matches_cold_build(*served.http->router(), content.dir(),
                            "after the second edit");
}
