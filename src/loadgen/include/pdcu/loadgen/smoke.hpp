// Self-test mode: boot a real HttpServer over the builtin repository on
// an ephemeral loopback port, drive a short loadgen run against it, and
// return the Result. This is what `pdcu loadgen --smoke` and the
// bench_gate CI comparator run — no fixture server to deploy, no port to
// coordinate, identical request schedule on every machine (fixed seed).
// Server and client share no thread: the server runs on its reactor
// shards, the load generator on the calling thread.
#pragma once

#include <vector>

#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::loadgen {

struct SmokeOptions {
  double rate = 150.0;
  double duration_s = 2.0;
  unsigned connections = 2;
  std::uint64_t seed = 42;
  unsigned net_shards = 1;
  /// Server-side concurrent-connection cap; 0 keeps the server default.
  unsigned max_connections = 0;
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

/// One measured point of the offered-rate sweep.
struct SweepPoint {
  double rate = 0.0;
  Result result;
};

struct SweepOptions {
  /// Offered arrival rates, swept in order.
  std::vector<double> rates = {200.0, 800.0, 3200.0};
  double duration_s = 2.0;
  unsigned connections = 128;
  std::uint64_t seed = 42;
  unsigned net_shards = 2;
};

/// Drives every rate in `sweep.rates` against one embedded server (reused
/// across the rates so TCP state warms identically). Points are returned
/// in rate order.
Expected<std::vector<SweepPoint>> run_sweep(const SweepOptions& sweep = {});

/// Renders sweep points as one BENCH-schema document (bench
/// "sweep_serve"): per-point nested objects keyed reactor_0, reactor_1,
/// ... plus a "summary" object with the best achieved rate.
std::string render_sweep_json(const std::vector<SweepPoint>& points,
                              const SweepOptions& sweep);

}  // namespace pdcu::loadgen
