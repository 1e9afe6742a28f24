#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Zipf::Zipf(std::size_t n, double exponent) {
  cumulative_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  if (cumulative_.empty()) return 0;
  const double u = rng.uniform();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_.begin()),
      cumulative_.size() - 1);
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(q * n);
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, n)) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  return percentile(samples, 0.5);
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_quote(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

std::string details_json(const std::vector<Metric>& metrics,
                         const std::vector<Metric>& uncorrected) {
  std::string out = "{\"samples\": {";
  bool first = true;
  for (const auto& metric : metrics) {
    if (metric.samples == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += json_quote(metric.name) + ": " + std::to_string(metric.samples);
  }
  out += "}, \"uncorrected\": {";
  first = true;
  for (const auto& metric : uncorrected) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(metric.name) + ": " + json_number(metric.value);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
