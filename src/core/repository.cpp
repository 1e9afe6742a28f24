#include "pdcu/core/repository.hpp"

#include <sys/stat.h>

#include <optional>
#include <utility>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/curation.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/support/fs.hpp"
#include "pdcu/support/hash.hpp"

namespace pdcu::core {

Repository::Repository(std::vector<Activity> activities)
    : Repository(std::move(activities), {}) {}

Repository::Repository(std::vector<Activity> activities,
                       std::vector<std::uint64_t> fingerprints)
    : activities_(std::move(activities)),
      fingerprints_(std::move(fingerprints)) {
  if (fingerprints_.size() != activities_.size()) fingerprints_.clear();
  auto index =
      std::make_shared<tax::TermIndex>(tax::TaxonomyConfig::pdcunplugged());
  for (const auto& activity : activities_) {
    index->add_page(activity.page_ref(), activity.tags());
  }
  index_ = std::move(index);
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
  auto paths = fs::list_files(content_dir / "activities", ".md");
  if (!paths) return paths.error();
  std::vector<ContentFile> files;
  files.reserve(paths.value().size());
  for (auto& path : paths.value()) {
    ContentFile file;
    struct ::stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      file.size = static_cast<std::uint64_t>(st.st_size);
      file.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                          1'000'000'000 +
                      st.st_mtim.tv_nsec;
      file.stat_ok = true;
    }
    file.path = std::move(path);
    files.push_back(std::move(file));
  }
  return files;
}

std::uint64_t listing_fingerprint(const std::vector<ContentFile>& files) {
  std::uint64_t state = hash::kFnv1aInit;
  const auto mix = [&state](std::string_view bytes) {
    state = hash::fnv1a_64_update(state, bytes);
    state = hash::fnv1a_64_update(state, std::string_view("\x1f", 1));
  };
  for (const auto& file : files) {
    mix(file.path.native());
    mix(file.stat_ok ? std::to_string(file.size) : "?");
    mix(file.stat_ok ? std::to_string(file.mtime_ns) : "?");
  }
  mix(std::to_string(files.size()));
  return state;
}

Expected<LoadReport> Repository::load_lenient(
    const std::filesystem::path& content_dir) {
  auto paths = fs::list_files(content_dir / "activities", ".md");
  if (!paths) return paths.error().context("loading repository");
  // A one-off load needs no stamps: without a cache nothing is memoized.
  std::vector<ContentFile> files(paths.value().size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].path = std::move(paths.value()[i]);
  }
  return load_files(files, nullptr);
}

LoadReport Repository::load_lenient(const std::vector<ContentFile>& files,
                                    LoadCache& cache) {
  return load_files(files, &cache);
}

LoadReport Repository::load_files(const std::vector<ContentFile>& files,
                                  LoadCache* cache) {
  const std::size_t n = files.size();

  // Memo hits: a stat'ed file whose stamp matches its entry is not read.
  // Lookups happen here, serially, so the parallel phase below never
  // touches the map.
  std::vector<LoadCache::Entry*> hits(n, nullptr);
  if (cache != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = cache->entries_.find(files[i].path.native());
      if (files[i].stat_ok && it != cache->entries_.end() &&
          it->second.size == files[i].size &&
          it->second.mtime_ns == files[i].mtime_ns) {
        hits[i] = &it->second;
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
  const auto quarantine = [&](std::size_t i, Error error) {
    report.quarantined.push_back(LoadDiagnostic{
        files[i].path, files[i].path.stem().string(), std::move(error)});
  };

  if (cache == nullptr) {
    healthy.reserve(n);
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

  // Refill the memo with exactly this listing: hits move over, fresh
  // parses (activities and parse errors alike) go in, and entries of
  // deleted or renamed files are dropped. Read errors are not memoized —
  // the next load retries them.
  std::unordered_map<std::string, LoadCache::Entry> next;
  next.reserve(n);
  std::vector<LoadCache::Entry> unstamped;  // parsed but not memoized
  unstamped.reserve(n);
  std::vector<const LoadCache::Entry*> sources;  // one per healthy file
  sources.reserve(n);
  const auto take = [&](std::size_t i, const LoadCache::Entry& entry) {
    if (entry.parsed.has_value()) {
      sources.push_back(&entry);
    } else {
      quarantine(i, entry.parsed.error());
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& key = files[i].path.native();
    if (hits[i] != nullptr) {
      ++report.files_reused;
      take(i, next.emplace(key, std::move(*hits[i])).first->second);
      continue;
    }
    ++report.files_parsed;
    if (read_errors[i].has_value()) {
      quarantine(i, std::move(*read_errors[i]));
      continue;
    }
    LoadCache::Entry fresh{files[i].size, files[i].mtime_ns,
                           std::move(*parsed[i]), parsed_fingerprints[i]};
    // Without a stamp there is nothing to trust next time: use the parse,
    // do not memoize it.
    take(i, files[i].stat_ok ? next.emplace(key, std::move(fresh)).first->second
                             : unstamped.emplace_back(std::move(fresh)));
  }

  // The repository gets its own copies; made in parallel, since every
  // activity is copied on every load.
  healthy.resize(sources.size());
  std::vector<std::uint64_t> fingerprints(sources.size());
  rt::default_pool().parallel_for(
      0, sources.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          healthy[k] = sources[k]->parsed.value();
          fingerprints[k] = sources[k]->fingerprint;
        }
      });
  cache->entries_ = std::move(next);
  report.repository = Repository(std::move(healthy), std::move(fingerprints));
  return report;
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

namespace {

// Minimal JSON string escaping (core cannot use site::json_escape — the
// dependency points the other way).
std::string json_escape_min(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string LoadReport::render_json() const {
  std::string json = "{\"status\":\"";
  json += degraded() ? "degraded" : "ok";
  json += "\",\"total_files\":" + std::to_string(total_files);
  json += ",\"loaded\":" + std::to_string(loaded());
  json += ",\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    const auto& diagnostic = quarantined[i];
    if (i > 0) json += ',';
    json += "{\"path\":\"" + json_escape_min(diagnostic.path.string());
    json += "\",\"slug\":\"" + json_escape_min(diagnostic.slug);
    json += "\",\"code\":\"" + json_escape_min(diagnostic.error.code);
    json += "\",\"message\":\"" + json_escape_min(diagnostic.error.message);
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
