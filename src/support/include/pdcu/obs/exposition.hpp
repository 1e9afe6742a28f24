// The one writer of the Prometheus text exposition format. Every /metrics
// source lists its families through an Exposition: family() writes a
// family's HELP and TYPE comment lines once, and the samples and histogram
// series that follow belong to that family until the next family(). The
// output is what lint_exposition() checks and what scrapers ingest.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "pdcu/obs/histogram.hpp"

namespace pdcu::obs {

/// The content type of an exposition body, so a stock scraper accepts
/// /metrics without content-type overrides.
inline constexpr std::string_view kExpositionContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// One label of a sample, written as name="value" (the value verbatim).
struct Label {
  std::string_view name;
  std::string_view value;
};
using Labels = std::initializer_list<Label>;

class Exposition {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  /// Opens a family: its HELP and TYPE lines.
  Exposition& family(std::string_view name, Type type, std::string_view help);

  /// One sample of the open family: `name{labels} value`, without braces
  /// when there are no labels.
  Exposition& sample(Labels labels, std::uint64_t value);
  /// The same with a value already formatted (a fractional gauge).
  Exposition& sample(Labels labels, std::string_view value);

  /// One series of the open histogram family: cumulative `_bucket` samples
  /// over the powers of four from 1 to 4^13 (1us to ~67s for latencies),
  /// each an exact internal bucket edge, then le="+Inf", `_sum` and
  /// `_count`. `labels` come before the le label.
  Exposition& histogram(Labels labels, const Histogram::Snapshot& snapshot);

  /// A counter or gauge family of one unlabelled sample.
  Exposition& counter(std::string_view name, std::string_view help,
                      std::uint64_t value) {
    return family(name, Type::kCounter, help).sample({}, value);
  }
  Exposition& gauge(std::string_view name, std::string_view help,
                    std::uint64_t value) {
    return family(name, Type::kGauge, help).sample({}, value);
  }

  /// The document written so far.
  std::string take() { return std::move(out_); }

 private:
  void write(std::string_view suffix, Labels labels, std::string_view le,
             std::string_view value);

  std::string out_;
  std::string family_;
};

}  // namespace pdcu::obs
