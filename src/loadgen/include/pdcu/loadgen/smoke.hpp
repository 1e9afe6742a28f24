// Self-test mode: boot a real HttpServer over the builtin repository on
// an ephemeral loopback port, drive a short loadgen run against it, and
// return the Result. This is what `pdcu loadgen --smoke` (and CI's
// CLI-boundary smoke step, which parses its stdout as JSON) runs — no
// fixture server to deploy, no port to coordinate, identical request
// schedule on every machine (fixed seed).
// It is a smoke test, not a baseline: the gated serving numbers are
// perfbench's (BENCH_perf_*.json, see tools/bench_gate.cpp).
// Server and client share no thread: the server runs on two reactor
// shards (kSmokeNetShards), the load generator on the calling thread.
#pragma once

#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

/// Reactor shards of the embedded server: two, so the smoke always
/// crosses the sharded accept path.
inline constexpr unsigned kSmokeNetShards = 2;

struct SmokeOptions {
  double rate = 150.0;
  double duration_s = 2.0;
  unsigned connections = 2;
  std::uint64_t seed = 42;
  /// Serve a deterministic synthetic corpus of this many documents instead
  /// of the builtin 38-activity curation (0 = builtin). Search-route query
  /// terms are drawn from the generator's vocabulary so they hit real
  /// posting lists. Keep modest (<= a few thousand): the embedded server
  /// renders a site page per document.
  std::size_t synthetic_docs = 0;
  std::uint64_t corpus_seed = 42;  ///< corpus seed when synthetic_docs > 0
};

/// Runs the smoke load and returns the result; the embedded server is
/// gone by the time this returns. The loadgen Options used are written to
/// `used` (for rendering the BENCH JSON) when non-null.
Expected<Result> run_smoke(const SmokeOptions& smoke = {},
                           Options* used = nullptr);

}  // namespace pdcu::loadgen
