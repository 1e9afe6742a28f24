// A promtool-`check metrics`-style linter for the Prometheus text
// exposition format, used by tests and the tools/metrics_lint binary to
// keep /metrics ingestible by a stock scraper. Stricter than the wire
// format requires, matching promtool's lint rules plus house rules:
//
//   - every sample's family must declare its TYPE (and HELP) line first
//   - counters end in _total; non-counters must not
//   - _bucket/_sum/_count samples only appear under histogram families
//   - histogram buckets carry le labels, are cumulative, include +Inf,
//     and agree with _count; _sum and _count are present
//   - no duplicate series (same name and label set)
//   - names, labels, and values are syntactically valid
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pdcu::obs {

/// Lints one exposition document. Returns one human-readable problem per
/// finding, prefixed with the line number; empty means clean.
std::vector<std::string> lint_exposition(std::string_view text);

}  // namespace pdcu::obs
