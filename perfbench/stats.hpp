// Measurement primitives the benchmark owns outright, so that rewrites of
// the program's own histograms and load generator never move the yardstick:
// a seeded generator, a Zipf sampler, exact order-statistic percentiles,
// and the JSON writer for the result line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: tiny, fast, and identical on every platform, so a schedule
/// is a pure function of its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 bits of precision.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n must be positive.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

/// P(rank k) proportional to 1 / (k + 1)^s over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double exponent);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// The exact nearest-rank order statistic: the smallest sample such that at
/// least a share `q` (0 < q <= 1) of all samples are at or below it. No
/// bucketing and no interpolation, so every reported percentile is one of
/// the measured values. Reorders `samples`; 0 when empty.
double percentile(std::vector<double>& samples, double q);

/// Convenience: median of a copy.
double median(std::vector<double> samples);

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& samples);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< measurements behind `value`; 0 if uncounted
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}},
/// each metric as {"value", "unit"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// The sample counts of the counted metrics and the uncorrected values:
/// {"samples": {"<name>": n, ..}, "uncorrected": {"<name>": value, ..}}.
std::string details_json(const std::vector<Metric>& metrics,
                         const std::vector<Metric>& uncorrected);

/// JSON string literal for `text` (quotes included).
std::string json_quote(std::string_view text);

/// Shortest round-tripping decimal form of `value` ("null" when not finite).
std::string json_number(double value);

}  // namespace perfbench
