#include "pdcu/site/json_catalog.hpp"

#include "pdcu/support/strings.hpp"

namespace pdcu::site {

namespace strs = pdcu::strings;

namespace {

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    strs::json_escape_append(values[i], out);
    out += '"';
  }
  out += "]";
  return out;
}

std::string field(std::string_view key, std::string_view value) {
  std::string out = "\"" + std::string(key) + "\":\"";
  strs::json_escape_append(value, out);
  out += '"';
  return out;
}

}  // namespace

std::string activity_json(const core::Activity& a) {
  std::string out = "{";
  out += field("slug", a.slug) + ",";
  out += field("title", a.title) + ",";
  out += field("date", a.date.to_string()) + ",";
  out += "\"year\":" + std::to_string(a.year) + ",";
  out += "\"authors\":" + string_array(a.authors) + ",";
  out += field("origin_url", a.origin_url) + ",";
  out += "\"has_external_resources\":" +
         std::string(a.has_external_resources() ? "true" : "false") + ",";
  out += "\"cs2013\":" + string_array(a.cs2013) + ",";
  out += "\"cs2013details\":" + string_array(a.cs2013details) + ",";
  out += "\"tcpp\":" + string_array(a.tcpp) + ",";
  out += "\"tcppdetails\":" + string_array(a.tcppdetails) + ",";
  out += "\"courses\":" + string_array(a.courses) + ",";
  out += "\"senses\":" + string_array(a.senses) + ",";
  out += "\"medium\":" + string_array(a.mediums) + ",";
  out += field("simulation", a.simulation) + ",";
  out += "\"variations\":" + std::to_string(a.variations.size()) + ",";
  out += "\"citations\":" + std::to_string(a.citations.size());
  out += "}";
  return out;
}

std::string render_json_catalog(const core::Repository& repo) {
  std::vector<std::string> rendered;
  rendered.reserve(repo.activities().size());
  for (const auto& activity : repo.activities()) {
    rendered.push_back(activity_json(activity));
  }
  return render_json_catalog(
      repo, std::vector<std::string_view>(rendered.begin(), rendered.end()));
}

std::string render_json_catalog(
    const core::Repository& repo,
    const std::vector<std::string_view>& activity_objects) {
  std::size_t size = 64;
  for (const auto object : activity_objects) size += object.size() + 2;
  std::string out;
  out.reserve(size + 4096);
  out += "{\n\"activities\":[\n";
  for (std::size_t i = 0; i < activity_objects.size(); ++i) {
    if (i > 0) out += ",\n";
    out += activity_objects[i];
  }
  out += "\n],\n";

  out += "\"coverage\":{\"cs2013\":[";
  auto analyzer = repo.coverage();
  auto cs2013_rows = analyzer.cs2013_table();
  for (std::size_t i = 0; i < cs2013_rows.size(); ++i) {
    if (i > 0) out += ",";
    const auto& row = cs2013_rows[i];
    out += "{" + field("unit", row.unit_name) +
           ",\"outcomes\":" + std::to_string(row.num_outcomes) +
           ",\"covered\":" + std::to_string(row.covered_outcomes) +
           ",\"activities\":" + std::to_string(row.total_activities) + "}";
  }
  out += "],\"tcpp\":[";
  auto tcpp_rows = analyzer.tcpp_table();
  for (std::size_t i = 0; i < tcpp_rows.size(); ++i) {
    if (i > 0) out += ",";
    const auto& row = tcpp_rows[i];
    out += "{" + field("area", row.area_name) +
           ",\"topics\":" + std::to_string(row.num_topics) +
           ",\"covered\":" + std::to_string(row.covered_topics) +
           ",\"activities\":" + std::to_string(row.total_activities) + "}";
  }
  out += "]},\n";

  auto stats = repo.stats();
  out += "\"stats\":{\"count\":" + std::to_string(stats.activity_count()) +
         ",\"with_external_resources\":" +
         std::to_string(stats.with_external_resources()) +
         ",\"with_simulation\":" + std::to_string(stats.with_simulation()) +
         "}\n}\n";
  return out;
}

}  // namespace pdcu::site
