// The regression comparator behind tools/bench_gate: given a committed
// BENCH baseline and a freshly measured document, decide whether the
// fresh run regressed. Rules are multiplicative — a latency key fails
// when fresh > baseline * tolerance, a throughput key fails when
// fresh < baseline / tolerance — because absolute perf varies wildly
// across the containers and CI runners this repo builds on, while an
// order-of-magnitude cliff is a regression anywhere.
#pragma once

#include <string>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"

namespace pdcu::loadgen {

struct GateRule {
  std::string key;            ///< dotted BENCH key, e.g. "latency_us.p99"
  bool higher_is_worse = true;
  bool required = true;       ///< missing key is itself a violation
};

struct GateOptions {
  /// Allowed multiplicative drift in the worse direction. Improvements
  /// are never violations.
  double tolerance = 5.0;
};

/// The rules bench_gate applies to a loadgen "serve" document.
std::vector<GateRule> serve_gate_rules();

/// The rules bench_gate applies to a "search" document.
std::vector<GateRule> search_gate_rules();

/// The rules bench_gate applies to a re-measured "search_scale" document.
/// Only the 10k-document section is compared — the gate re-measures at
/// 10k; the committed 100k section is validated structurally instead (see
/// scale_schema_violations).
std::vector<GateRule> scale_gate_rules();

/// Structural validation of the committed "search_scale" document: both
/// corpus sizes present with exhaustive/MaxScore percentiles and cache
/// counters, and the headline claim — MaxScore p99 at least
/// `min_speedup` times better than exhaustive at >= 100k documents —
/// actually held when the baseline was measured. Returns human-readable
/// violations; empty means the document is well-formed.
std::vector<std::string> scale_schema_violations(const BenchDoc& doc,
                                                 double min_speedup = 5.0);

/// Rules for the "stencil" benchmark (bench/bench_stencil.cpp): the host
/// kernel throughputs are rates, so lower is worse. The SIMD arm is
/// compared via the always-present autovec kernel; the avx2 figure is
/// informational because CI hosts may not have AVX2 at all.
std::vector<GateRule> stencil_gate_rules();

/// Structural validation of the committed "stencil" document: grid shape
/// and kernel throughputs present, bit-exact parity recorded with zero
/// mismatches, the virtual-time speedup curve complete for p in
/// {1,2,4,8,16} with the analytic halo count holding, zero errors, and
/// the committed headline — at least `min_speedup` virtual-time speedup
/// at 4 ranks — actually measured. Empty means well-formed.
std::vector<std::string> stencil_schema_violations(const BenchDoc& doc,
                                                   double min_speedup = 1.5);

/// Structural validation of a "sweep_serve" BENCH document (the
/// latency-vs-offered-rate sweep committed as BENCH_sweep_serve.json).
/// The sweep is too expensive to re-measure inside the gate, so the gate
/// checks the committed document's shape instead: right bench name and
/// schema, at least one reactor_N point, each carrying rps/scheduled/
/// completed, a 'points' count matching the point objects, and a summary
/// whose saturation rate is the best reactor point's. Returns
/// human-readable violations; empty means the document is well-formed.
std::vector<std::string> sweep_schema_violations(const BenchDoc& doc);

/// Compares `fresh` against `baseline`: schema versions must match, the
/// bench names must match, fresh error counters (any "errors.*" key
/// present in `fresh`) must be zero, and every rule must hold within the
/// tolerance. Returns human-readable violations; empty means the gate
/// passes.
std::vector<std::string> gate_compare(const BenchDoc& baseline,
                                      const BenchDoc& fresh,
                                      const std::vector<GateRule>& rules,
                                      const GateOptions& options = {});

}  // namespace pdcu::loadgen
