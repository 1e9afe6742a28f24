#include "schedule.hpp"

#include <cmath>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::string_view kSearchPrefix = "/api/search?q=";
constexpr std::string_view kSearchSuffix = "&limit=10";

bool unreserved(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
         c == '~';
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::string url_encode(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    if (unreserved(c)) {
      out += ch;
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

std::string search_text(const Planned& request) {
  if (request.kind != Kind::kSearch) return {};
  const std::string& t = request.target;
  const std::size_t end = t.size() - kSearchSuffix.size();
  std::string out;
  for (std::size_t i = kSearchPrefix.size(); i < end; ++i) {
    if (t[i] == '%' && i + 2 < end && hex_value(t[i + 1]) >= 0 &&
        hex_value(t[i + 2]) >= 0) {
      out += static_cast<char>(hex_value(t[i + 1]) * 16 + hex_value(t[i + 2]));
      i += 2;
    } else {
      out += t[i];
    }
  }
  return out;
}

std::vector<Planned> make_schedule(const Traffic& traffic, const Inputs& inputs,
                                   double rate, double seconds,
                                   std::uint64_t seed) {
  std::vector<Planned> schedule;
  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));
  if (total == 0 || inputs.slugs.empty()) return schedule;
  const double weights[] = {traffic.page, traffic.catalog, traffic.activity,
                            inputs.terms.empty() ? 0.0 : traffic.search};
  double total_weight = 0.0;
  for (const double w : weights) total_weight += w;
  const double interval_ns = 1e9 / rate;
  const Zipf slug_zipf(inputs.slugs.size(), traffic.zipf);
  const Zipf term_zipf(inputs.terms.size(), traffic.zipf);
  Rng rng(seed);

  schedule.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Planned request;
    request.due_ns = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(i) * interval_ns));
    // A fixed draw order per request keeps the schedule a pure function
    // of the seed whatever the route turns out to be.
    double pick = rng.uniform() * total_weight;
    int kind = 0;
    while (kind < 3 && pick >= weights[kind]) pick -= weights[kind++];
    request.kind = static_cast<Kind>(kind);
    const std::string& slug = inputs.slugs[slug_zipf.sample(rng)];
    switch (request.kind) {
      case Kind::kPage:
        request.target = "/activities/" + slug + "/";
        break;
      case Kind::kCatalog:
        request.target = "/api/catalog.json";
        break;
      case Kind::kActivity:
        request.target = "/api/activities/" + slug + ".json";
        break;
      case Kind::kSearch: {
        const std::size_t terms = 1 + rng.below(traffic.max_terms);
        std::string query;
        for (std::size_t t = 0; t < terms; ++t) {
          if (!query.empty()) query += ' ';
          query += inputs.terms[term_zipf.sample(rng)];
        }
        if (!inputs.filters.empty() && rng.chance(traffic.filter_share)) {
          query += ' ';
          query += inputs.filters[rng.below(inputs.filters.size())];
        }
        request.target = std::string(kSearchPrefix) + url_encode(query) +
                         std::string(kSearchSuffix);
        break;
      }
    }
    request.fresh = rng.chance(traffic.fresh_connection);
    request.conditional = request.kind != Kind::kSearch &&
                          rng.chance(traffic.conditional);
    schedule.push_back(std::move(request));
  }
  return schedule;
}

std::string dump(const std::vector<Planned>& schedule) {
  std::string out;
  for (const auto& r : schedule) {
    out += std::to_string(r.due_ns);
    out += ' ';
    out += std::to_string(static_cast<int>(r.kind));
    out += r.fresh ? " F" : " K";
    out += r.conditional ? " C " : " U ";
    out += r.target;
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
