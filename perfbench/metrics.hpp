// The metric catalog: every end-to-end metric a user of the system would
// see, and every per-layer metric with the end-to-end metric and workload
// it is expected to move. BENCHMARK.json lists the same names; the
// self-test checks that the two agree and that every layer metric points
// at a real end-to-end metric and workload.
#pragma once

#include <array>
#include <string_view>

namespace perfbench {

inline constexpr std::array<std::string_view, 4> kWorkloads = {
    "browse", "search_corpus", "author_reload", "stencil_lab"};

struct EndToEnd {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better;
};

/// Reported by every workload on an untraced run. What "latency" and
/// "throughput" measure is the workload's own user-facing operation:
///   browse, search_corpus  request latency at the fixed open-loop rate,
///                          from each request's intended send time;
///                          throughput is capacity, the request rate the
///                          server sustains with the workload's connections
///                          sending back to back
///   author_reload          read latency while one edit a second is
///                          reloaded beside the reads; throughput is the
///                          edit rate the reload pipeline sustains, one over
///                          the median time from an edit's write to the
///                          first GET that serves it
///   stencil_lab            time of one generation of the dispatched SIMD
///                          kernel; throughput is tiled-kernel cells per
///                          second, the pool on one CPU
/// The tail (client.latency_p99_us) is a per-layer figure of the traced
/// run: on a shared VM it followed host stalls, and read 130-800 us for
/// browse from run to run with the code unchanged.
inline constexpr std::array<EndToEnd, 4> kEndToEnd = {{
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"latency_p50_us", "us", false},
    {"throughput_per_s", "1/s", true},
}};

struct PerLayer {
  std::string_view name;
  std::string_view unit;
  std::string_view moves;     ///< the end-to-end metric it should move
  std::string_view workload;  ///< ... on this workload
};

/// Reported by every workload on a traced run. A workload measures each
/// layer on its own data where its path runs through that layer; the
/// serving workloads measure the stencil layers on a small torus, and
/// stencil_lab and the read-only serving workloads measure authoring
/// (core, site rebuild, reload) on the built-in curation exported to disk.
inline constexpr std::array<PerLayer, 52> kPerLayer = {{
    {"net.accepts_per_kreq", "1/kreq", "latency_p50_us", "browse"},
    {"net.writev_per_req", "count", "latency_p50_us", "browse"},
    {"net.partial_write_ratio", "ratio", "latency_p50_us", "browse"},
    {"net.residual_p50_us", "us", "latency_p50_us", "browse"},
    {"server.parse_ns.p50", "ns", "latency_p50_us", "browse"},
    {"server.parse_ns.p99", "ns", "latency_p50_us", "browse"},
    {"server.fast_ns.p50", "ns", "latency_p50_us", "browse"},
    {"server.fast_ns.p99", "ns", "latency_p50_us", "browse"},
    {"server.fast_hit_ratio", "ratio", "throughput_per_s", "browse"},
    {"server.handle_ns.p50", "ns", "latency_p50_us", "browse"},
    {"server.handle_ns.p99", "ns", "throughput_per_s", "browse"},
    {"server.serialize_ns.p50", "ns", "latency_p50_us", "browse"},
    {"server.query_cache_hit_ratio", "ratio", "throughput_per_s",
     "search_corpus"},
    {"server.router_build_ms", "ms", "throughput_per_s", "author_reload"},
    {"server.swap_us", "us", "throughput_per_s", "author_reload"},
    {"search.parse_query_ns.p50", "ns", "latency_p50_us", "search_corpus"},
    {"search.rank_us.p50", "us", "latency_p50_us", "search_corpus"},
    {"search.rank_us.p99", "us", "throughput_per_s", "search_corpus"},
    {"search.snippet_us.p50", "us", "latency_p50_us", "search_corpus"},
    {"search.prune_speedup", "x", "throughput_per_s", "search_corpus"},
    {"search.build_ms", "ms", "setup_s", "search_corpus"},
    {"site.build_ms", "ms", "setup_s", "search_corpus"},
    {"site.rebuild_ms", "ms", "throughput_per_s", "author_reload"},
    {"site.pages_rendered_per_edit", "count", "throughput_per_s",
     "author_reload"},
    {"site.parse_ms", "ms", "setup_s", "author_reload"},
    {"site.render_ms", "ms", "setup_s", "author_reload"},
    {"site.assemble_ms", "ms", "setup_s", "author_reload"},
    {"markdown.render_page_us", "us", "throughput_per_s", "author_reload"},
    {"core.load_lenient_ms", "ms", "throughput_per_s", "author_reload"},
    {"core.fingerprint_us", "us", "throughput_per_s", "author_reload"},
    {"reload.check_once_ms", "ms", "throughput_per_s", "author_reload"},
    {"reload.edit_visible_ms", "ms", "throughput_per_s", "author_reload"},
    {"runtime.tiled_speedup", "x", "throughput_per_s", "stencil_lab"},
    {"runtime.effective_parallelism", "cores", "none", "stencil_lab"},
    // The classroom run has no end-to-end metric of its own yet.
    {"classroom.virtual_speedup", "x", "none", "stencil_lab"},
    {"classroom.run_ms", "ms", "none", "stencil_lab"},
    {"stencil.serial_cells_per_s", "cells/s", "setup_s", "stencil_lab"},
    {"stencil.autovec_cells_per_s", "cells/s", "latency_p50_us",
     "stencil_lab"},
    {"stencil.avx2_cells_per_s", "cells/s", "latency_p50_us", "stencil_lab"},
    {"stencil.simd_cells_per_s", "cells/s", "latency_p50_us", "stencil_lab"},
    {"stencil.tiled_cells_per_s", "cells/s", "throughput_per_s",
     "stencil_lab"},
    {"stencil.bytes_per_gen", "bytes", "latency_p50_us", "stencil_lab"},
    {"stencil.halo_messages", "count", "none", "stencil_lab"},
    {"client.latency_p99_us", "us", "none", "browse"},
    {"client.lateness_p99_us", "us", "latency_p50_us", "browse"},
    {"client.lateness_max_us", "us", "none", "browse"},
    {"client.samples", "count", "none", "browse"},
    {"client.retries", "count", "none", "browse"},
    {"trace.overhead_p50_us", "us", "none", "browse"},
    {"trace.overhead_p99_us", "us", "none", "browse"},
    {"trace.spans", "count", "none", "browse"},
    {"error_ratio", "ratio", "none", "browse"},
}};

}  // namespace perfbench
