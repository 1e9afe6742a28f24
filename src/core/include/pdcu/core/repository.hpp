// The repository: a loaded curation plus its taxonomy index and analytics.
// This is the top-level object most tools construct first.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pdcu/core/activity.hpp"
#include "pdcu/core/coverage.hpp"
#include "pdcu/core/gaps.hpp"
#include "pdcu/core/stats.hpp"
#include "pdcu/core/validate.hpp"
#include "pdcu/support/expected.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/taxonomy/term_index.hpp"

namespace pdcu::core {

/// One quarantined content file: which file failed and the structured
/// error that disqualified it.
struct LoadDiagnostic {
  std::filesystem::path path;
  std::string slug;  ///< filename stem — the slug the file would serve
  Error error;
};

class Repository;
struct LoadReport;

/// One activities/*.md content file as listed, with the (size, mtime)
/// stamp of a single stat. The stamp is what a reloading server trusts:
/// a file whose path, size and mtime are all unchanged is taken to hold
/// the same bytes (an edit that keeps all three is not seen). A file whose
/// stat failed (stat_ok false) is never memoized.
using ContentFile = fs::StampedFile;

/// Lists `content_dir`/activities/*.md sorted by path, one stat per file
/// (fs::list_stamped). Error when the directory itself cannot be listed.
Expected<std::vector<ContentFile>> list_content(
    const std::filesystem::path& content_dir);

/// FNV-1a over every listed file's path, size and mtime, plus the file
/// count: moves whenever a file is added, removed, renamed or restamped.
std::uint64_t listing_fingerprint(const std::vector<ContentFile>& files);

/// The state a reloading server carries from one load to the next: the
/// per-file parse memo, the repository the last load built (once its
/// holder hands it back) and that repository's term index.
///
/// The memo holds each file's stamp, its activity's fingerprint or its
/// parse error, and where its activity sits in the last repository, in the
/// listing's path order, each trusted while the file's stamp is unchanged.
/// It holds no activity: the repository does. A load through it
/// merge-walks the memo against the new sorted listing, reads and parses
/// only added or restamped files, and drops deleted and renamed ones. An
/// unchanged activity is moved out of the repository handed back with
/// hand_back(); without one (the first load, or when the last repository
/// was dropped or handed back to no one) every healthy file is parsed
/// again, as a cold load does. A memoized parse error needs no repository.
///
/// The term index is shared by the next repository when its taxonomy
/// fingerprint is unchanged, which is what a body-only edit leaves.
class LoadCache {
 public:
  std::size_t size() const { return entries_.size(); }

  /// Hands back the repository the last load through this cache built,
  /// once nothing reads its activities any more: it takes them, leaving
  /// `served`'s index and fingerprints as they were, and the next load
  /// moves the unchanged ones out instead of parsing their files. Any
  /// other repository (another size, or a copy of that one) is ignored.
  void hand_back(Repository&& served);

 private:
  struct Entry {
    std::string path;  ///< the listed path's native string
    std::uint64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::uint64_t fingerprint = 0;  ///< of the activity, when it parsed
    std::optional<Error> error;     ///< why the file failed to parse
    std::size_t slot = 0;  ///< the activity's index in the last repository
  };
  std::vector<Entry> entries_;  ///< sorted by path, like the listing
  std::size_t built_ = 0;  ///< activities the last load built
  const Activity* built_data_ = nullptr;  ///< ... and where they live
  std::vector<Activity> returned_;  ///< handed back: built_ activities
  std::shared_ptr<const tax::TermIndex> index_;
  std::uint64_t index_taxonomy_ = 0;  ///< taxonomy fingerprint of index_

  friend class Repository;
};

/// An immutable, indexed curation.
class Repository {
 public:
  /// The repository over the built-in 38-activity curation. Returns a
  /// reference to a process-lifetime instance, so pointers into it (e.g.
  /// from find()) never dangle; copy it when you need a mutable one.
  static const Repository& builtin();

  /// Loads every activities/*.md file under `content_dir` (the on-disk
  /// layout used by pdcunplugged.org: content/activities/<slug>.md).
  /// Strict: any malformed file fails the whole load, with an error that
  /// aggregates *every* failing file sorted by path (deterministic no
  /// matter how the parallel parse interleaved).
  static Expected<Repository> load(const std::filesystem::path& content_dir);

  /// Lenient load for a serving process: parses every file, quarantines
  /// the malformed ones, and builds a degraded-but-serving repository
  /// from the rest. Fails only when the directory itself cannot be
  /// listed. Community content breaks one file at a time; the other
  /// activities should keep serving while it does.
  static Expected<LoadReport> load_lenient(
      const std::filesystem::path& content_dir);

  /// The same lenient load over an existing listing (see list_content),
  /// through `cache`: files whose stamp matches their memo entry are not
  /// read when their activity can be moved out of the repository handed
  /// back to the cache (see LoadCache), and the cache is left describing
  /// exactly `files`. An empty cache loads every file, like the overload
  /// above. The repository carries each activity's fingerprint, and shares
  /// the cache's term index when its taxonomy fingerprint is the cached
  /// one. `files` must be sorted by path, as list_content gives them (an
  /// unsorted listing loads correctly but misses memo hits).
  static LoadReport load_lenient(const std::vector<ContentFile>& files,
                                 LoadCache& cache);

  /// Builds a repository over an explicit activity list.
  explicit Repository(std::vector<Activity> activities);

  /// Same, with each activity's activity_fingerprint already known (one
  /// per activity, in order), so callers that key caches on them never
  /// re-serialize an unchanged activity.
  Repository(std::vector<Activity> activities,
             std::vector<std::uint64_t> fingerprints);

  const std::vector<Activity>& activities() const { return activities_; }
  const tax::TermIndex& index() const { return *index_; }
  /// The same index, shared: it is immutable, so a holder (a server
  /// snapshot) can keep it without copying after the repository is gone.
  std::shared_ptr<const tax::TermIndex> shared_index() const { return index_; }

  /// activity_fingerprint of activities()[i]: the carried value, or
  /// computed now when the repository was built without them.
  std::uint64_t fingerprint(std::size_t i) const;

  /// FNV-1a over every activity's slug, title and seven tag lists, in
  /// order, plus the activity count: everything the term index (and so
  /// every taxonomy view) depends on. A body-only edit leaves it unchanged.
  std::uint64_t taxonomy_fingerprint() const { return taxonomy_fingerprint_; }

  const Activity* find(std::string_view slug) const;

  CoverageAnalyzer coverage() const { return CoverageAnalyzer(activities_); }
  CurationStats stats() const { return CurationStats(activities_); }
  GapFinder gaps() const { return GapFinder(activities_); }
  std::vector<Finding> validate() const {
    return validate_curation(activities_);
  }

  /// Writes every activity to `content_dir`/activities/<slug>.md.
  Status export_to(const std::filesystem::path& content_dir) const;

 private:
  /// Shares `index` when `index_taxonomy` is the activities' taxonomy
  /// fingerprint, and builds a fresh index otherwise (or when it is null).
  Repository(std::vector<Activity> activities,
             std::vector<std::uint64_t> fingerprints,
             std::shared_ptr<const tax::TermIndex> index,
             std::uint64_t index_taxonomy);

  static LoadReport load_files(const std::vector<ContentFile>& files,
                               LoadCache* cache);

  std::vector<Activity> activities_;
  std::vector<std::uint64_t> fingerprints_;  ///< empty, or one per activity
  std::uint64_t taxonomy_fingerprint_ = 0;
  std::shared_ptr<const tax::TermIndex> index_;

  friend class LoadCache;
};

/// The outcome of Repository::load_lenient: the repository over every
/// healthy file plus structured diagnostics for the quarantined rest.
/// Diagnostics are sorted by path, so the report is byte-identical no
/// matter how the parallel parse interleaved.
struct LoadReport {
  Repository repository{std::vector<Activity>{}};
  std::vector<LoadDiagnostic> quarantined;
  std::size_t total_files = 0;  ///< healthy + quarantined
  std::size_t files_parsed = 0;  ///< files read and parsed by this load
  std::size_t files_reused = 0;  ///< files taken from the LoadCache
  /// A load through a LoadCache: the activities handed back to it that
  /// this load did not take (edited, renamed or deleted files) and the
  /// moved-from rest. They are freed with the report, on whichever thread
  /// drops it.
  std::vector<Activity> retired;

  bool degraded() const { return !quarantined.empty(); }
  std::size_t loaded() const { return total_files - quarantined.size(); }

  /// Slugs of the quarantined files, in path (= slug) order.
  std::vector<std::string> quarantined_slugs() const;

  /// Human-readable multi-line report — what `pdcu check` prints.
  std::string render_report() const;

  /// Machine-readable report — what `pdcu check --json` prints:
  /// {"status":"ok|degraded","total_files":N,"loaded":N,"quarantined":
  /// [{"path":...,"slug":...,"code":...,"message":...},...]}.
  std::string render_json() const;
};

}  // namespace pdcu::core
