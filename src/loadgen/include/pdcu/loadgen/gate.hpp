// The regression comparator and structural checks behind
// tools/bench_gate. The gate's main trajectory is perfbench's: one
// BENCH_perf_<workload>.json per workload, assembled by perf_doc_json from
// the stdout of `perfbench/run.py` (untraced and traced), checked
// structurally (perf_schema_violations) and re-measured against
// perf_gate_rules. Rules are multiplicative — a latency key fails when
// fresh > baseline * tolerance, a throughput key fails when
// fresh < baseline / tolerance — because absolute perf varies wildly
// across the containers and CI runners this repo builds on, while an
// order-of-magnitude cliff is a regression anywhere.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

struct GateRule {
  std::string key;  ///< dotted key, e.g. "result.metrics.setup_s.value"
  bool higher_is_worse = true;
};

struct GateOptions {
  /// Allowed multiplicative drift in the worse direction. Improvements
  /// are never violations.
  double tolerance = 5.0;
};

/// The keys bench_gate compares between a committed
/// BENCH_perf_<workload>.json and a fresh run of the same workload: every
/// workload's end-to-end throughput and median latency, plus the layer
/// figures that carry the workload's headline (browse's client p99,
/// search_corpus's ranking percentiles and set-up, stencil_lab's kernel
/// throughputs).
std::vector<GateRule> perf_gate_rules(std::string_view workload);

/// Structural validation of a committed BENCH_perf_<workload>.json: schema
/// and bench name "perf_<workload>", seed, seconds and revision present,
/// result.attempted > 0, result.failed and layers.failed zero, and every
/// perf_gate_rules key present. Empty means well-formed.
std::vector<std::string> perf_schema_violations(const BenchDoc& doc,
                                                std::string_view workload);

/// Assembles a BENCH_perf_<workload>.json document from the standard
/// output of two `perfbench/run.py --workload <workload> --seed <seed>
/// --seconds <seconds>` runs, one with --trace 0 and one with --trace 1.
/// Each output is three JSON lines; the untraced run's first two (the env
/// block, and the samples and uncorrected figures) become top-level
/// members, its last line becomes "result" and the traced run's last line
/// "layers". Errors when an output is not three JSON objects or the
/// assembled document does not parse.
Expected<std::string> perf_doc_json(std::string_view workload,
                                    std::uint64_t seed, double seconds,
                                    std::string_view revision,
                                    std::string_view untraced_stdout,
                                    std::string_view traced_stdout);

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
/// completed, no point object that is not a reactor_N point, a 'points'
/// count matching them, and a summary whose saturation rate is the best
/// reactor point's. Returns human-readable violations; empty means the
/// document is well-formed.
std::vector<std::string> sweep_schema_violations(const BenchDoc& doc);

/// Compares `fresh` against `baseline`: schema versions must match, the
/// bench names must match, fresh failure counters (any "failed" or
/// "*.failed" key in `fresh`) must be zero, every rule's key must be in
/// both, and every rule must hold within the tolerance. Returns
/// human-readable violations; empty means the gate passes.
std::vector<std::string> gate_compare(const BenchDoc& baseline,
                                      const BenchDoc& fresh,
                                      const std::vector<GateRule>& rules,
                                      const GateOptions& options = {});

}  // namespace pdcu::loadgen
