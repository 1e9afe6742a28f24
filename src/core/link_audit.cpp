#include "pdcu/core/link_audit.hpp"

#include "pdcu/support/fs.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::core {

namespace strs = pdcu::strings;

namespace {

/// Activities whose original external materials the paper records as
/// de-activated (§IV cites [12] Rifkin, [35] Chesebrough & Turner, [37]
/// Andrianoff & Levine).
struct KnownDead {
  const char* slug;
  const char* note;
};
constexpr KnownDead kKnownDead[] = {
    {"parallelradixsort",
     "Rifkin (1994) cited external activity materials; links de-activated "
     "(paper SSIV)"},
    {"intersectionsynchronization",
     "Chesebrough & Turner (2010) supporting links de-activated (paper "
     "SSIV)"},
    {"dinnerpartyproducers",
     "Andrianoff & Levine (2002) role-play materials link de-activated "
     "(paper SSIV)"},
};

const char* known_dead_note(const std::string& slug) {
  for (const auto& entry : kKnownDead) {
    if (slug == entry.slug) return entry.note;
  }
  return nullptr;
}

}  // namespace

std::vector<LinkAuditEntry> audit_links(
    const std::vector<Activity>& activities) {
  std::vector<LinkAuditEntry> out;
  for (const auto& activity : activities) {
    LinkAuditEntry entry;
    entry.slug = activity.slug;
    entry.url = activity.origin_url;
    if (const char* note = known_dead_note(activity.slug)) {
      entry.status = LinkStatus::kKnownDead;
      entry.note = note;
    } else if (activity.origin_url.empty()) {
      entry.status = LinkStatus::kSelfContained;
      entry.note = "details carried inline";
    } else if (strs::starts_with(activity.origin_url, "https://")) {
      entry.status = LinkStatus::kLinked;
      entry.note = "external materials not yet mirrored";
    } else {
      entry.status = LinkStatus::kAtRisk;
      entry.note = "plain-http link, unarchived";
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<std::size_t> audit_counts(
    const std::vector<LinkAuditEntry>& entries) {
  std::vector<std::size_t> counts(4, 0);
  for (const auto& entry : entries) {
    counts[static_cast<std::size_t>(entry.status)] += 1;
  }
  return counts;
}

std::string render_link_audit(const std::vector<LinkAuditEntry>& entries) {
  auto counts = audit_counts(entries);
  std::string out = "=== External-materials audit (paper SSIV) ===\n";
  out += "self-contained: " + std::to_string(counts[0]) +
         ", known-dead: " + std::to_string(counts[1]) +
         ", at-risk (http): " + std::to_string(counts[2]) +
         ", linked (https): " + std::to_string(counts[3]) + "\n\n";
  for (const auto& entry : entries) {
    if (entry.status == LinkStatus::kSelfContained) continue;
    const char* label = entry.status == LinkStatus::kKnownDead ? "DEAD  "
                        : entry.status == LinkStatus::kAtRisk ? "RISK  "
                                                              : "LINKED";
    out += std::string(label) + " " + strs::pad_right(entry.slug, 30) +
           " " + (entry.url.empty() ? "-" : entry.url) + "\n";
  }
  out += "\nRecommendation (SSIV): mirror linked materials into the "
         "repository so a copy exists at an independent location; see "
         "export_archive_plan().\n";
  return out;
}

Expected<std::size_t> export_archive_plan(
    const std::vector<Activity>& activities,
    const std::filesystem::path& out_dir) {
  std::size_t written = 0;
  for (const auto& activity : activities) {
    if (!activity.has_external_resources()) continue;
    std::string readme;
    readme += "# Materials mirror: " + activity.title + "\n\n";
    readme += "Source: " + activity.origin_url + "\n\n";
    readme += "Place archived copies of the external materials (slides, "
              "handouts, instructor guides) in this directory so the "
              "activity survives link rot (PDCunplugged paper, SSIV).\n\n";
    readme += "Citations to archive:\n\n";
    for (const auto& citation : activity.citations) {
      readme += "- " + citation.text + "\n";
      if (!citation.url.empty()) {
        readme += "  (materials: " + citation.url + ")\n";
      }
    }
    auto status = fs::replace_file(
        out_dir / "materials" / activity.slug / "README.md", readme);
    if (!status) return status.error();
    ++written;
  }
  return written;
}

}  // namespace pdcu::core
