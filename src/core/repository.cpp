#include "pdcu/core/repository.hpp"

#include <optional>
#include <utility>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/curation.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::core {

namespace {

std::uint64_t taxonomy_fingerprint_of(const std::vector<Activity>& activities) {
  hash::Fingerprint fp;
  const auto mix_list = [&fp](const std::vector<std::string>& terms) {
    fp.mix(static_cast<std::uint64_t>(terms.size()));
    for (const auto& term : terms) fp.mix(term);
  };
  for (const auto& activity : activities) {
    fp.mix(activity.slug).mix(activity.title);
    mix_list(activity.cs2013);
    mix_list(activity.cs2013details);
    mix_list(activity.tcpp);
    mix_list(activity.tcppdetails);
    mix_list(activity.courses);
    mix_list(activity.senses);
    mix_list(activity.mediums);
  }
  return fp.mix(static_cast<std::uint64_t>(activities.size())).value();
}

}  // namespace

Repository::Repository(std::vector<Activity> activities)
    : Repository(std::move(activities), {}) {}

Repository::Repository(std::vector<Activity> activities,
                       std::vector<std::uint64_t> fingerprints)
    : Repository(std::move(activities), std::move(fingerprints), nullptr, 0) {}

Repository::Repository(std::vector<Activity> activities,
                       std::vector<std::uint64_t> fingerprints,
                       std::shared_ptr<const tax::TermIndex> index,
                       std::uint64_t index_taxonomy)
    : activities_(std::move(activities)),
      fingerprints_(std::move(fingerprints)),
      taxonomy_fingerprint_(taxonomy_fingerprint_of(activities_)) {
  if (fingerprints_.size() != activities_.size()) fingerprints_.clear();
  if (index != nullptr && index_taxonomy == taxonomy_fingerprint_) {
    index_ = std::move(index);
    return;
  }
  auto fresh =
      std::make_shared<tax::TermIndex>(tax::TaxonomyConfig::pdcunplugged());
  for (const auto& activity : activities_) {
    fresh->add_page(activity.page_ref(), activity.tags());
  }
  index_ = std::move(fresh);
}

std::uint64_t Repository::fingerprint(std::size_t i) const {
  return fingerprints_.empty() ? activity_fingerprint(activities_[i])
                               : fingerprints_[i];
}

const Repository& Repository::builtin() {
  static const Repository kBuiltin{curation()};
  return kBuiltin;
}

Expected<std::vector<ContentFile>> list_content(
    const std::filesystem::path& content_dir) {
  return fs::list_stamped(content_dir / "activities", ".md");
}

std::uint64_t listing_fingerprint(const std::vector<ContentFile>& files) {
  hash::Fingerprint fp;
  for (const auto& file : files) {
    fp.mix(file.path.native());
    if (file.stat_ok) {
      fp.mix(file.size).mix(static_cast<std::uint64_t>(file.mtime_ns));
    } else {
      fp.mix("?");
    }
  }
  return fp.mix(static_cast<std::uint64_t>(files.size())).value();
}

Expected<LoadReport> Repository::load_lenient(
    const std::filesystem::path& content_dir) {
  auto files = list_content(content_dir);
  if (!files) return files.error().context("loading repository");
  return load_files(files.value(), nullptr);
}

LoadReport Repository::load_lenient(const std::vector<ContentFile>& files,
                                    LoadCache& cache) {
  return load_files(files, &cache);
}

LoadReport Repository::load_files(const std::vector<ContentFile>& files,
                                  LoadCache* cache) {
  const std::size_t n = files.size();

  // Memo hits: a stat'ed file whose stamp matches its entry is not read
  // when the entry holds its parse error or its activity is in the
  // repository handed back. The memo and the listing are both sorted by
  // path, so one merge walk finds every hit, serially, and the parallel
  // phase below never touches the memo. Each entry is matched at most
  // once.
  std::vector<LoadCache::Entry*> hits(n, nullptr);
  if (cache != nullptr) {
    auto& memo = cache->entries_;
    const std::size_t returned = cache->returned_.size();
    std::size_t j = 0;
    for (std::size_t i = 0; i < n && j < memo.size(); ++i) {
      const std::string& key = files[i].path.native();
      int order = memo[j].path.compare(key);
      while (order < 0 && ++j < memo.size()) order = memo[j].path.compare(key);
      if (order != 0) continue;
      LoadCache::Entry& entry = memo[j++];
      if (files[i].stat_ok && entry.size == files[i].size &&
          entry.mtime_ns == files[i].mtime_ns &&
          (entry.error.has_value() || entry.slot < returned)) {
        hits[i] = &entry;
      }
    }
  }

  // Read and parse the rest in parallel (the engine eats its own
  // cooking). Each index writes only its own slot, so no synchronization
  // is needed, and everything comes out in the sorted-filename order of
  // the listing — deterministic at any pool size. With a cache, each
  // parsed activity's fingerprint is computed here too, off the serial
  // path.
  std::vector<std::optional<Expected<Activity>>> parsed(n);
  std::vector<std::optional<Error>> read_errors(n);
  std::vector<std::uint64_t> parsed_fingerprints(n, 0);
  rt::default_pool().parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (hits[i] != nullptr) continue;
      auto text = fs::read_file(files[i].path);
      if (!text) {
        read_errors[i] = text.error();
        continue;
      }
      parsed[i] = parse_activity(text.value());
      if (cache != nullptr && parsed[i]->has_value()) {
        parsed_fingerprints[i] = activity_fingerprint(parsed[i]->value());
      }
    }
  });

  LoadReport report;
  report.total_files = n;
  std::vector<Activity> healthy;
  healthy.reserve(n);
  const auto quarantine = [&](std::size_t i, Error error) {
    report.quarantined.push_back(LoadDiagnostic{
        files[i].path, files[i].path.stem().string(), std::move(error)});
  };

  if (cache == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      ++report.files_parsed;
      if (read_errors[i].has_value()) {
        quarantine(i, std::move(*read_errors[i]));
      } else if (!parsed[i]->has_value()) {
        quarantine(i, parsed[i]->error());
      } else {
        healthy.push_back(std::move(*parsed[i]).value());
      }
    }
    report.repository = Repository(std::move(healthy));
    return report;
  }

  // Refill the memo with exactly this listing, in its order: hits move
  // over, fresh parses (fingerprints and parse errors alike) go in, and
  // entries of deleted or renamed files are dropped. Read errors are not
  // memoized — the next load retries them, and so is a file without a
  // stamp: there is nothing to trust next time. The activities go to the
  // repository in listing order, a hit's moved out of the one handed back.
  std::vector<LoadCache::Entry> next;
  next.reserve(n);
  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (hits[i] != nullptr) {
      ++report.files_reused;
      LoadCache::Entry& entry = next.emplace_back(std::move(*hits[i]));
      if (entry.error.has_value()) {
        quarantine(i, *entry.error);
        continue;
      }
      healthy.push_back(std::move(cache->returned_[entry.slot]));
      entry.slot = healthy.size() - 1;
      fingerprints.push_back(entry.fingerprint);
      continue;
    }
    ++report.files_parsed;
    if (read_errors[i].has_value()) {
      quarantine(i, std::move(*read_errors[i]));
      continue;
    }
    Expected<Activity>& result = *parsed[i];
    LoadCache::Entry fresh{files[i].path.native(), files[i].size,
                           files[i].mtime_ns, parsed_fingerprints[i],
                           std::nullopt, 0};
    if (result.has_value()) {
      fresh.slot = healthy.size();
      fingerprints.push_back(parsed_fingerprints[i]);
      healthy.push_back(std::move(result).value());
    } else {
      fresh.error = result.error();
      quarantine(i, result.error());
    }
    if (files[i].stat_ok) next.push_back(std::move(fresh));
  }

  cache->entries_ = std::move(next);
  report.retired = std::exchange(cache->returned_, {});
  report.repository = Repository(std::move(healthy), std::move(fingerprints),
                                 std::move(cache->index_),
                                 cache->index_taxonomy_);
  cache->built_ = report.repository.activities_.size();
  cache->built_data_ = report.repository.activities_.data();
  cache->index_ = report.repository.shared_index();
  cache->index_taxonomy_ = report.repository.taxonomy_fingerprint();
  return report;
}

void LoadCache::hand_back(Repository&& served) {
  if (served.activities_.size() != built_ ||
      served.activities_.data() != built_data_) {
    return;
  }
  returned_ = std::exchange(served.activities_, {});
}

Expected<Repository> Repository::load(
    const std::filesystem::path& content_dir) {
  auto loaded = load_lenient(content_dir);
  if (!loaded) return loaded.error();
  LoadReport& report = loaded.value();
  if (report.degraded()) {
    // Aggregate every failure, in path order, so the strict load reports
    // the same error regardless of thread interleaving — and names every
    // broken file instead of an arbitrary first one.
    const auto& all = report.quarantined;
    std::string message = std::to_string(all.size()) + " of " +
                          std::to_string(report.total_files) +
                          " content files failed to load:";
    for (const auto& diagnostic : all) {
      message += "\n  " + diagnostic.path.string() + ": [" +
                 diagnostic.error.code + "] " + diagnostic.error.message;
    }
    return Error::make("repository.load", std::move(message));
  }
  return std::move(report.repository);
}

std::vector<std::string> LoadReport::quarantined_slugs() const {
  std::vector<std::string> slugs;
  slugs.reserve(quarantined.size());
  for (const auto& diagnostic : quarantined) slugs.push_back(diagnostic.slug);
  return slugs;
}

std::string LoadReport::render_report() const {
  std::string out = std::to_string(loaded()) + " of " +
                    std::to_string(total_files) + " activities loaded";
  if (!degraded()) {
    out += "; content is healthy\n";
    return out;
  }
  out += "; " + std::to_string(quarantined.size()) + " quarantined:\n";
  for (const auto& diagnostic : quarantined) {
    out += "  " + diagnostic.path.string() + "\n    [" +
           diagnostic.error.code + "] " + diagnostic.error.message + "\n";
  }
  return out;
}

std::string LoadReport::render_json() const {
  std::string json = "{\"status\":\"";
  json += degraded() ? "degraded" : "ok";
  json += "\",\"total_files\":" + std::to_string(total_files);
  json += ",\"loaded\":" + std::to_string(loaded());
  json += ",\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    const auto& diagnostic = quarantined[i];
    if (i > 0) json += ',';
    json += "{\"path\":\"";
    strings::json_escape_append(diagnostic.path.string(), json);
    json += "\",\"slug\":\"";
    strings::json_escape_append(diagnostic.slug, json);
    json += "\",\"code\":\"";
    strings::json_escape_append(diagnostic.error.code, json);
    json += "\",\"message\":\"";
    strings::json_escape_append(diagnostic.error.message, json);
    json += "\"}";
  }
  json += "]}\n";
  return json;
}

const Activity* Repository::find(std::string_view slug) const {
  for (const auto& activity : activities_) {
    if (activity.slug == slug) return &activity;
  }
  return nullptr;
}

Status Repository::export_to(const std::filesystem::path& content_dir) const {
  for (const auto& activity : activities_) {
    auto status = fs::write_file(
        content_dir / "activities" / (activity.slug + ".md"),
        write_activity(activity));
    if (!status) return status;
  }
  return Status::ok();
}

}  // namespace pdcu::core
