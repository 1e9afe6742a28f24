#include <string>

#include "pdcu/core/activity_io.hpp"
#include "pdcu/curriculum/cs2013.hpp"
#include "pdcu/curriculum/tcpp.hpp"
#include "pdcu/curriculum/terms.hpp"
#include "pdcu/markdown/frontmatter.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/strings.hpp"

namespace pdcu::core {

namespace strs = pdcu::strings;

namespace {

void append_section(std::string& out, std::string_view name) {
  out += "---\n\n## ";
  out += name;
  out += "\n\n";
}

md::FrontMatter build_front_matter(const Activity& a) {
  md::FrontMatter fm;
  fm.set("title", md::Value::make_scalar(a.title));
  fm.set("date", md::Value::make_scalar(a.date.to_string()));
  fm.set("year", md::Value::make_scalar(std::to_string(a.year)));
  fm.set("cs2013", md::Value::make_list(a.cs2013));
  fm.set("cs2013details", md::Value::make_list(a.cs2013details));
  fm.set("tcpp", md::Value::make_list(a.tcpp));
  fm.set("tcppdetails", md::Value::make_list(a.tcppdetails));
  fm.set("courses", md::Value::make_list(a.courses));
  fm.set("senses", md::Value::make_list(a.senses));
  fm.set("medium", md::Value::make_list(a.mediums));
  if (!a.simulation.empty()) {
    fm.set("simulation", md::Value::make_scalar(a.simulation));
  }
  return fm;
}

}  // namespace

std::string write_activity(const Activity& a) {
  std::string out = build_front_matter(a).to_string();
  out += "\n";

  // Original Author/link.
  out += "## ";
  out += sections::kOriginalAuthor;
  out += "\n\n";
  out += strs::join(a.authors, ", ");
  out += "\n\n";
  if (a.has_external_resources()) {
    out += "[External resources](" + a.origin_url + ")\n\n";
  } else {
    out += std::string(sections::kNoExternal) + "\n\n";
  }

  // Details (optional in the template, present whenever we have text).
  if (!a.details.empty()) {
    append_section(out, sections::kDetails);
    out += a.details;
    out += "\n\n";
    if (!a.variations.empty()) {
      out += "### Variations\n\n";
      for (const auto& v : a.variations) {
        out += "- **" + v.name + "**: " + v.description + "\n";
      }
      out += "\n";
    }
  }

  // CS2013 Knowledge Unit Coverage: enumerate each knowledge unit with the
  // learning outcomes this activity addresses (per §II.A(c)).
  append_section(out, sections::kCs2013);
  const auto& cs2013 = cur::Cs2013Catalog::instance();
  for (const auto& unit_term : a.cs2013) {
    const auto* unit = cs2013.find_by_term(unit_term);
    if (unit == nullptr) continue;
    out += "### " + unit->name + "\n\n";
    for (const auto& lo_term : a.cs2013details) {
      auto ref = cs2013.resolve_detail_term(lo_term);
      if (ref && ref->unit == unit) {
        out += "- (" + lo_term + ") " + ref->outcome->text + "\n";
      }
    }
    out += "\n";
  }

  // TCPP Topics Coverage: topic areas with itemized topics.
  append_section(out, sections::kTcpp);
  const auto& tcpp = cur::TcppCatalog::instance();
  for (const auto& area_term : a.tcpp) {
    const auto* area = tcpp.find_area(area_term);
    if (area == nullptr) continue;
    out += "### " + area->name + "\n\n";
    for (const auto& topic_term : a.tcppdetails) {
      auto ref = tcpp.resolve_detail_term_full(topic_term);
      if (ref.area == area) {
        out += "- (" + topic_term + ") " + ref.topic->description + "\n";
      }
    }
    out += "\n";
  }

  // Recommended Courses.
  append_section(out, sections::kCourses);
  for (const auto& course : a.courses) {
    out += "- " + cur::course_display_name(course) + "\n";
  }
  out += "\n";

  // Accessibility.
  append_section(out, sections::kAccessibility);
  out += a.accessibility;
  out += "\n\n";

  // Assessment.
  append_section(out, sections::kAssessment);
  out += a.assessment;
  out += "\n\n";

  // Citations.
  append_section(out, sections::kCitations);
  for (const auto& c : a.citations) {
    out += "- " + c.text;
    if (!c.url.empty()) {
      out += " ([materials](" + c.url + "))";
    }
    out += "\n";
  }
  return out;
}

std::uint64_t activity_fingerprint(const Activity& activity) {
  std::uint64_t state = hash::fnv1a_64_update(hash::kFnv1aInit, activity.slug);
  state = hash::fnv1a_64_update(state, std::string_view("\x1f", 1));
  return hash::fnv1a_64_update(state, write_activity(activity));
}

}  // namespace pdcu::core
