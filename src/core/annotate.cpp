#include "pdcu/core/annotate.hpp"

#include <functional>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/support/fs.hpp"

namespace pdcu::core {

namespace {

/// Loads, mutates, and re-serializes one on-disk activity.
Status rewrite_activity(const std::filesystem::path& content_dir,
                        std::string_view slug,
                        const std::function<void(Activity&)>& mutate) {
  const auto path =
      content_dir / "activities" / (std::string(slug) + ".md");
  auto text = fs::read_file(path);
  if (!text) return text.error();
  auto parsed = parse_activity(text.value());
  if (!parsed) {
    return parsed.error().context("annotating '" + std::string(slug) + "'");
  }
  Activity activity = std::move(parsed).value();
  mutate(activity);
  return fs::replace_file(path, write_activity(activity));
}

}  // namespace

Status annotate_assessment(const std::filesystem::path& content_dir,
                           std::string_view slug, std::string_view note) {
  if (note.empty()) {
    return Error::make("annotate.empty", "assessment note is empty");
  }
  return rewrite_activity(content_dir, slug, [&](Activity& activity) {
    if (!activity.assessment.empty()) activity.assessment += "\n\n";
    activity.assessment += "Classroom experience: ";
    activity.assessment += note;
  });
}

Status annotate_variation(const std::filesystem::path& content_dir,
                          std::string_view slug, std::string_view name,
                          std::string_view description) {
  if (name.empty() || description.empty()) {
    return Error::make("annotate.empty", "variation name/description empty");
  }
  return rewrite_activity(content_dir, slug, [&](Activity& activity) {
    activity.variations.push_back(
        {std::string(name), std::string(description)});
  });
}

}  // namespace pdcu::core
