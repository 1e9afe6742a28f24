// Serialization of activities to and from the Markdown format of §II.A:
// front-matter header (Fig. 2) plus seven body sections separated by
// horizontal rules (Fig. 1). write_activity ∘ parse_activity is the
// identity on every field (tested over the whole curation).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pdcu/core/activity.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::core {

/// Renders an activity as a PDCunplugged Markdown content file.
std::string write_activity(const Activity& activity);

/// Parses a PDCunplugged Markdown content file into an Activity.
Expected<Activity> parse_activity(std::string_view markdown);

/// Identity of an activity's content: FNV-1a over its slug and its
/// canonical serialization, which carries every other field. Activities
/// with equal fingerprints render, serialize and index identically, so
/// the reload caches key their per-activity work on it.
std::uint64_t activity_fingerprint(const Activity& activity);

/// Section heading names, in the order mandated by the Fig. 1 template.
namespace sections {
inline constexpr std::string_view kOriginalAuthor = "Original Author/link";
inline constexpr std::string_view kDetails = "Details";
inline constexpr std::string_view kCs2013 = "CS2013 Knowledge Unit Coverage";
inline constexpr std::string_view kTcpp = "TCPP Topics Coverage";
inline constexpr std::string_view kCourses = "Recommended Courses";
inline constexpr std::string_view kAccessibility = "Accessibility";
inline constexpr std::string_view kAssessment = "Assessment";
inline constexpr std::string_view kCitations = "Citations";
/// The note written when an activity has no surviving external resources.
inline constexpr std::string_view kNoExternal =
    "No external resources found. See details below.";
}  // namespace sections

}  // namespace pdcu::core
