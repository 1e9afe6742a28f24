// The pdcu command-line tool: the Hugo-equivalent workflow for the
// PDCunplugged repository.
//
//   pdcu list                      list curated activities
//   pdcu show <slug>               render an activity header (Fig. 3, ANSI)
//   pdcu new <Title>               print a pre-populated template (Fig. 1)
//   pdcu validate [content-dir]    lint the curation (or a content dir)
//   pdcu check <content-dir>       lenient-load a content dir and print the
//        quarantine report (exit 0 healthy, 1 degraded)
//   pdcu build <content-dir> <out> [options]  generate the HTML site
//        --stats (per-phase build stats), --serial (no thread pool),
//        --incremental (prime a BuildCache, then verify an incremental
//        rebuild reuses every unchanged page); malformed content files are
//        quarantined with a warning instead of failing the build
//   pdcu tables                    print the paper's Tables I and II
//   pdcu gaps                      print the coverage-gap report
//   pdcu impact                    coverage with the proposed activities
//   pdcu json                      emit the machine-readable catalog
//   pdcu audit                     external-materials link-rot audit
//   pdcu plan <course> [sessions]  greedy coverage-maximizing lesson plan
//   pdcu annotate <dir> <slug> <note>  record a classroom experience
//   pdcu run <simulation> [seed]   run an activity simulation
//   pdcu search [options] <query>  ranked full-text + taxonomy search
//        --limit N (default 10), --index FILE (load a prebuilt index),
//        --mmap (serve the --index file from a memory map, no heap copy)
//        query: free text plus cs2013:/tcpp:/course:/sense: filters
//   pdcu index <out-file>          build and save the binary search index
//        --synthetic N (index a deterministic N-document generated corpus
//        instead of the curation), --seed S (corpus seed, default 42)
//   pdcu serve [options] [content-dir]  serve the site over HTTP from memory
//        on the sharded epoll reactor (zero-copy hot path for cached pages)
//        --port N (default 8080, 0 = ephemeral), --host H,
//        --net-shards N (epoll shards, default 1), --max-connections N
//        (concurrent cap, default 128, excess answered 503),
//        --index FILE (cold-start search from a prebuilt index),
//        --mmap (serve the --index file from a memory map),
//        --watch (live reload: poll the content dir, rebuild
//        incrementally, keep serving last-known-good on failure),
//        --poll-ms N (watch poll interval, default 500),
//        --access-log FILE (structured JSON access log, one object per
//        line; "-" for stdout).
//        Content loads leniently: malformed files are quarantined and
//        /healthz reports "degraded" instead of the server not starting.
//   pdcu loadgen [options]         open-loop HTTP load generator
//        --port N (target server; or --smoke for an embedded one),
//        --host H, --rate R (arrivals/sec, default 100), --duration S
//        (seconds, default 5), --connections N (default 4; one epoll
//        thread multiplexes them all, so N can reach tens of thousands),
//        --seed N (default 42; same seed => identical request schedule),
//        --mix page:catalog:activity:search or page=6:catalog=1:...,
//        --zipf S (slug popularity skew, default 1.1),
//        --keep-alive-ratio F (default 0.9), --timeout-ms N (default
//        2000), --out FILE (write the BENCH JSON there; default stdout).
//        --corpus N (--smoke only: serve a deterministic N-document
//        synthetic corpus with a search-heavy mix whose query terms
//        come from the generator's vocabulary; --corpus-seed S).
//        --sweep drives every offered rate against one embedded server
//        and emits one "sweep_serve" BENCH document (per-point
//        reactor_N objects plus a saturation summary).
//        Latency is measured from each request's *intended* send time
//        (coordinated-omission-safe); the summary is one versioned
//        BENCH-schema JSON object.
//   pdcu cluster [options] [content-dir]  replicated serving tier
//        Real mode (default): spawn --replicas M (default 3) `pdcu serve`
//        subprocesses and front them with a consistent-hash proxy that
//        health-checks, retries with backoff, and sheds toward healthy
//        replicas. --base-port P (replicas listen on P..P+M-1 and gossip
//        peer-to-peer; 0 = ephemeral ports, front-mediated gossip),
//        --front-port N (default ephemeral), --watch (replica live
//        reload). Prints the front tier's machine-parseable
//        `listening port=` line, runs until SIGINT/SIGTERM.
//        Sim mode (--sim): deterministic in-process virtual-time replay
//        of the same routing policy — --seed S, --requests N,
//        --duration-ms D, --scenario kill-one|degrade-one|partition|none,
//        --log (event log to stderr). Emits one JSON report; identical
//        seed => bit-identical checksum.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "pdcu/activities/registry.hpp"
#include "pdcu/activities/stencil.hpp"
#include "pdcu/cluster/fleet.hpp"
#include "pdcu/cluster/front.hpp"
#include "pdcu/cluster/gossip_agent.hpp"
#include "pdcu/cluster/sim.hpp"
#include "pdcu/core/annotate.hpp"
#include "pdcu/core/archetype.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/core/link_audit.hpp"
#include "pdcu/core/planner.hpp"
#include "pdcu/extensions/impact.hpp"
#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/loadgen/smoke.hpp"
#include "pdcu/obs/access_log.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/runtime/trace.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/search/query.hpp"
#include "pdcu/search/serialize.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/json_catalog.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/strings.hpp"
#include "pdcu/support/text_table.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdcu "
               "list|show|new|validate|check|build|serve|cluster|loadgen|"
               "search|index|tables|gaps|impact|json|audit|plan|annotate|"
               "run|stencil ...\n");
  return 2;
}

// Game of Life on a torus: host-kernel run (timed, parity-checked against
// the serial oracle) plus the classroom halo-exchange decomposition under
// the virtual-time cost model.
int stencil_cmd(int argc, char** argv) {
  std::size_t width = 64;
  std::size_t height = 0;  // 0 = square (width)
  int generations = 10;
  int ranks = 4;
  std::uint64_t seed = 42;
  std::string kernel_arg = "simd";
  bool trace_wanted = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--width") {
      const char* v = value();
      if (v == nullptr) break;
      width = std::strtoull(v, nullptr, 10);
    } else if (arg == "--height") {
      const char* v = value();
      if (v == nullptr) break;
      height = std::strtoull(v, nullptr, 10);
    } else if (arg == "--generations") {
      const char* v = value();
      if (v == nullptr) break;
      generations = std::atoi(v);
    } else if (arg == "--ranks") {
      const char* v = value();
      if (v == nullptr) break;
      ranks = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) break;
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--kernel") {
      const char* v = value();
      if (v == nullptr) break;
      kernel_arg = v;
    } else if (arg == "--trace") {
      trace_wanted = true;
    } else {
      std::fprintf(stderr,
                   "usage: pdcu stencil [--width N] [--height N] "
                   "[--generations G] [--ranks P]\n"
                   "                    [--kernel serial|tiled|autovec|avx2|"
                   "simd] [--seed S] [--trace]\n");
      return 2;
    }
  }
  if (height == 0) height = width;
  if (width == 0 || generations < 0 || ranks < 1) {
    std::fprintf(stderr, "stencil: invalid grid/ranks/generations\n");
    return 2;
  }

  namespace act = pdcu::act;
  act::LifeKernel kernel = act::LifeKernel::kSerial;
  if (kernel_arg == "serial") {
    kernel = act::LifeKernel::kSerial;
  } else if (kernel_arg == "tiled") {
    kernel = act::LifeKernel::kTiled;
  } else if (kernel_arg == "autovec") {
    kernel = act::LifeKernel::kAutovec;
  } else if (kernel_arg == "avx2") {
    kernel = act::LifeKernel::kAvx2;
  } else if (kernel_arg == "simd") {
    kernel = act::best_simd_kernel();
  } else {
    std::fprintf(stderr, "stencil: unknown kernel '%s'\n",
                 kernel_arg.c_str());
    return 2;
  }
  if (kernel == act::LifeKernel::kAvx2 &&
      !act::kernel_available(act::LifeKernel::kAvx2)) {
    std::fprintf(stderr,
                 "stencil: avx2 not available on this host; "
                 "falling back to autovec\n");
  }

  const act::LifeGrid start = act::LifeGrid::random(width, height, seed);
  const auto host_begin = std::chrono::steady_clock::now();
  const act::LifeGrid evolved = act::life_run(start, generations, kernel);
  const double host_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - host_begin)
                            .count();
  const act::LifeGrid oracle =
      act::life_run(start, generations, act::LifeKernel::kSerial);
  const bool parity = evolved == oracle;

  pdcu::rt::TraceLog trace;
  auto run = act::stencil_classroom(start, ranks, generations, {},
                                    trace_wanted ? &trace : nullptr);
  if (!run.ok()) {
    std::fprintf(stderr, "stencil: classroom run failed: %s\n",
                 run.error.c_str());
    return 1;
  }
  const bool classroom_parity = run.grid == oracle;
  const bool halo_ok =
      run.halo_messages ==
      act::expected_halo_messages(run.ranks, run.generations);

  std::printf("torus %zux%zu, %d generations, seed %llu\n", width, height,
              generations, static_cast<unsigned long long>(seed));
  std::printf("population %zu -> %zu\n", start.alive(), evolved.alive());
  std::printf("host kernel %s: %.1f Mcells/s, matches serial oracle: %s\n",
              std::string(act::kernel_name(kernel)).c_str(),
              host_s > 0.0 ? static_cast<double>(width * height) *
                                 generations / host_s / 1e6
                           : 0.0,
              parity ? "yes" : "NO");
  std::printf("classroom: %d ranks, halo messages %lld (analytic %lld, "
              "%s), virtual makespan %lld, speedup %.2fx, "
              "matches oracle: %s\n",
              run.ranks, static_cast<long long>(run.halo_messages),
              static_cast<long long>(act::expected_halo_messages(
                  run.ranks, run.generations)),
              halo_ok ? "ok" : "MISMATCH",
              static_cast<long long>(run.cost.makespan),
              run.speedup_vs_serial, classroom_parity ? "yes" : "NO");
  if (trace_wanted) {
    std::fputs(trace.render_script().c_str(), stdout);
  }
  return parity && classroom_parity && halo_ok ? 0 : 1;
}

int loadgen_cmd(int argc, char** argv) {
  pdcu::loadgen::Options options;
  bool smoke = false;
  bool sweep = false;
  bool port_given = false;
  bool rate_given = false;
  bool duration_given = false;
  bool connections_given = false;
  std::size_t corpus_docs = 0;
  std::uint64_t corpus_seed = 42;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
      port_given = true;
    } else if (arg == "--rate" && i + 1 < argc) {
      options.schedule.rate = std::strtod(argv[++i], nullptr);
      rate_given = true;
    } else if (arg == "--duration" && i + 1 < argc) {
      options.schedule.duration_s = std::strtod(argv[++i], nullptr);
      duration_given = true;
    } else if (arg == "--connections" && i + 1 < argc) {
      options.connections =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      connections_given = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      options.schedule.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--zipf" && i + 1 < argc) {
      options.schedule.zipf_exponent = std::strtod(argv[++i], nullptr);
    } else if (arg == "--keep-alive-ratio" && i + 1 < argc) {
      options.schedule.keep_alive_ratio = std::strtod(argv[++i], nullptr);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      options.timeout =
          std::chrono::milliseconds(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--mix" && i + 1 < argc) {
      auto mix = pdcu::loadgen::parse_mix(argv[++i]);
      if (!mix) {
        std::fprintf(stderr, "loadgen: %s\n", mix.error().message.c_str());
        return 2;
      }
      options.schedule.mix = std::move(mix).value();
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_docs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--corpus-seed" && i + 1 < argc) {
      corpus_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sweep") {
      sweep = true;
    } else {
      std::fprintf(stderr, "loadgen: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (corpus_docs > 0 && !smoke) {
    std::fprintf(stderr,
                 "loadgen: --corpus only applies to the embedded --smoke "
                 "server\n");
    return 2;
  }
  if (sweep) {
    // Offered-rate sweep; its own BENCH document shape.
    pdcu::loadgen::SweepOptions sweep_options;
    if (duration_given) sweep_options.duration_s = options.schedule.duration_s;
    if (connections_given) sweep_options.connections = options.connections;
    sweep_options.seed = options.schedule.seed;
    auto sweep_points = pdcu::loadgen::run_sweep(sweep_options);
    if (!sweep_points) {
      std::fprintf(stderr, "loadgen: %s\n",
                   sweep_points.error().message.c_str());
      return 1;
    }
    const std::string json =
        pdcu::loadgen::render_sweep_json(sweep_points.value(), sweep_options);
    if (out_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* file = std::fopen(out_path.c_str(), "wb");
      if (file == nullptr) {
        std::fprintf(stderr, "loadgen: cannot write '%s'\n",
                     out_path.c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), file);
      std::fclose(file);
    }
    for (const auto& point : sweep_points.value()) {
      std::fprintf(
          stderr, "sweep: rate %7.0f -> %8.1f req/s, %llu/%llu ok\n",
          point.rate, point.result.achieved_rate,
          static_cast<unsigned long long>(point.result.completed),
          static_cast<unsigned long long>(point.result.scheduled));
    }
    return 0;
  }
  if (!smoke && !port_given) {
    std::fprintf(stderr,
                 "usage: pdcu loadgen --port N [--host H] [--rate R] "
                 "[--duration S] [--connections N] [--seed N] [--mix M] "
                 "[--zipf S] [--keep-alive-ratio F] [--timeout-ms N] "
                 "[--out FILE] | "
                 "pdcu loadgen --smoke [--corpus N] [--out FILE]"
                 " | pdcu loadgen --sweep [--out FILE]\n");
    return 2;
  }

  pdcu::Expected<pdcu::loadgen::Result> result =
      pdcu::Error::make("loadgen", "unreachable");
  if (smoke) {
    // Smoke mode has its own lighter defaults; explicit flags still win.
    pdcu::loadgen::SmokeOptions smoke_options;
    if (rate_given) smoke_options.rate = options.schedule.rate;
    if (duration_given) {
      smoke_options.duration_s = options.schedule.duration_s;
    }
    if (connections_given) smoke_options.connections = options.connections;
    smoke_options.seed = options.schedule.seed;
    smoke_options.synthetic_docs = corpus_docs;
    smoke_options.corpus_seed = corpus_seed;
    result = pdcu::loadgen::run_smoke(smoke_options, &options);
  } else {
    result = pdcu::loadgen::run_against(options);
  }
  if (!result) {
    std::fprintf(stderr, "loadgen: %s\n", result.error().message.c_str());
    return 1;
  }
  const auto& r = result.value();
  const std::string json =
      pdcu::loadgen::render_result_json(r, "serve", options);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* file = std::fopen(out_path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
  }
  // The human summary goes to stderr so stdout stays a clean JSON object
  // for `pdcu loadgen ... > out.json`.
  std::fprintf(stderr,
               "loadgen: %llu/%llu ok, %.1f req/s (target %.1f), p50 %llu us, "
               "p99 %llu us, max %llu us, errors %llu\n",
               static_cast<unsigned long long>(r.completed),
               static_cast<unsigned long long>(r.scheduled),
               r.achieved_rate, r.target_rate,
               static_cast<unsigned long long>(r.latency_us.quantile(0.5)),
               static_cast<unsigned long long>(r.latency_us.quantile(0.99)),
               static_cast<unsigned long long>(r.max_latency_us),
               static_cast<unsigned long long>(r.errors_total()));
  return r.errors_total() == 0 ? 0 : 1;
}

int check(int argc, char** argv) {
  bool json = false;
  std::string content_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "check: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      content_dir = arg;
    }
  }
  if (content_dir.empty()) {
    std::fprintf(stderr, "usage: pdcu check [--json] <content-dir>\n");
    return 2;
  }
  auto loaded = pdcu::core::Repository::load_lenient(content_dir);
  if (!loaded) {
    if (json) {
      std::printf("{\"status\":\"error\",\"error\":\"%s\"}\n",
                  loaded.error().code.c_str());
    } else {
      std::fprintf(stderr, "check: %s\n", loaded.error().message.c_str());
    }
    return 1;
  }
  const auto& report = loaded.value();
  std::fputs(json ? report.render_json().c_str()
                  : report.render_report().c_str(),
             stdout);
  return report.degraded() ? 1 : 0;
}

int build_cmd(pdcu::core::Repository repo, int argc, char** argv) {
  bool want_stats = false;
  bool incremental = false;
  bool serial = false;
  std::string content_dir;
  std::string out_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--serial") {
      serial = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "build: unknown option '%s'\n", arg.c_str());
      return 2;
    } else if (content_dir.empty()) {
      content_dir = arg;
    } else if (out_dir.empty()) {
      out_dir = arg;
    } else {
      std::fprintf(stderr, "build: unexpected argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (content_dir.empty() || out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: pdcu build <content-dir> <out> "
                 "[--stats] [--incremental] [--serial]\n");
    return 2;
  }
  auto loaded = pdcu::core::Repository::load_lenient(content_dir);
  if (!loaded) {
    std::fprintf(stderr, "build: %s\n", loaded.error().message.c_str());
    return 1;
  }
  auto& report = loaded.value();
  if (report.degraded()) {
    std::fprintf(stderr, "build: DEGRADED — %zu of %zu content files "
                         "quarantined (run `pdcu check` for details):\n",
                 report.quarantined.size(), report.total_files);
    for (const auto& diagnostic : report.quarantined) {
      std::fprintf(stderr, "  %s: [%s]\n", diagnostic.path.string().c_str(),
                   diagnostic.error.code.c_str());
    }
  }
  repo = std::move(report.repository);

  pdcu::site::SiteOptions options;
  options.quarantined_inputs = report.quarantined.size();
  if (!serial) options.pool = &pdcu::rt::default_pool();

  // With --stats the per-phase wall times also land in a span registry,
  // so repeated phases (e.g. the two builds of --incremental) report
  // percentiles, not just the last run.
  pdcu::obs::SpanRegistry spans;
  if (want_stats) options.spans = &spans;

  pdcu::site::BuildStats stats;
  pdcu::site::Site site;
  if (incremental) {
    // Cold build primes the cache, then an incremental rebuild runs over
    // it — an end-to-end self-check of the fingerprint layer (unchanged
    // inputs must reuse every page) that also shows the steady-state cost
    // a long-lived builder would pay per change.
    pdcu::site::BuildCache cache;
    pdcu::site::BuildStats cold;
    site = pdcu::site::rebuild(repo, cache, options, &cold);
    site = pdcu::site::rebuild(repo, cache, options, &stats);
    if (want_stats) {
      std::printf("cold build:   %s\n", cold.summary().c_str());
      std::printf("incremental:  %s\n", stats.summary().c_str());
    }
    if (stats.pages_reused != stats.pages_total) {
      std::fprintf(stderr,
                   "build: incremental rebuild re-rendered %zu unchanged "
                   "pages\n",
                   stats.pages_rendered);
      return 1;
    }
  } else {
    site = pdcu::site::build_site(repo, options, &stats);
    if (want_stats) std::printf("build: %s\n", stats.summary().c_str());
  }
  if (want_stats) {
    const std::string span_summary = spans.summary();
    if (!span_summary.empty()) {
      std::printf("phase spans:\n%s", span_summary.c_str());
    }
  }

  auto status = pdcu::site::write_pages(site, out_dir);
  if (!status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("built %zu pages in %lld us\n", site.pages.size(),
              static_cast<long long>(site.build_time.count()));
  return 0;
}

int search(const pdcu::core::Repository& repo, int argc, char** argv) {
  std::size_t limit = 10;
  std::string index_path;
  std::string query_text;
  bool use_mmap = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--limit" && i + 1 < argc) {
      limit = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--index" && i + 1 < argc) {
      index_path = argv[++i];
    } else if (arg == "--mmap") {
      use_mmap = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "search: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      if (!query_text.empty()) query_text += ' ';
      query_text += arg;
    }
  }
  if (query_text.empty()) {
    std::fprintf(stderr, "search: missing query\n");
    return 2;
  }

  if (use_mmap && index_path.empty()) {
    std::fprintf(stderr, "search: --mmap requires --index FILE\n");
    return 2;
  }
  pdcu::search::SearchIndex index;
  if (!index_path.empty()) {
    auto loaded = use_mmap ? pdcu::search::mmap_index(index_path)
                           : pdcu::search::load_index(index_path);
    if (!loaded) {
      std::fprintf(stderr, "search: %s\n", loaded.error().message.c_str());
      return 1;
    }
    index = std::move(loaded).value();
  } else {
    index = pdcu::search::SearchIndex::build(repo, &pdcu::rt::default_pool());
  }

  const auto query = pdcu::search::parse_query(query_text);
  const auto hits = index.search(query, &repo.index(), limit);
  if (hits.empty()) {
    std::printf("no results for '%s'\n", query_text.c_str());
    return 1;
  }

  pdcu::TextTable table({"#", "Score", "Activity", "Snippet"}, 48);
  table.set_align(0, pdcu::Align::kRight);
  table.set_align(1, pdcu::Align::kRight);
  const auto plain = [](std::string_view s) { return std::string(s); };
  for (std::size_t i = 0; i < hits.size(); ++i) {
    char score[32];
    std::snprintf(score, sizeof score, "%.3f", hits[i].score);
    std::string activity = hits[i].title;
    activity += " (";
    activity += hits[i].slug;
    activity += ")";
    // Body text may contain newlines; the table wraps on spaces.
    table.add_row({std::to_string(i + 1), score, std::move(activity),
                   pdcu::strings::replace_all(
                       hits[i].snippet.render("[", "]", plain), "\n", " ")});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("%zu of %zu activities matched\n", hits.size(),
              repo.activities().size());
  return 0;
}

int build_index(const pdcu::core::Repository& repo, int argc, char** argv) {
  std::string out_path;
  std::size_t synthetic_docs = 0;
  std::uint64_t seed = 42;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--synthetic" && i + 1 < argc) {
      synthetic_docs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "index: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      out_path = arg;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "usage: pdcu index <out-file> [--synthetic N] [--seed S]\n");
    return 2;
  }
  // --synthetic N indexes a deterministic generated corpus instead of the
  // curation: the same N and seed always produce the same index file, so
  // scale experiments are reproducible by naming two integers.
  pdcu::search::SearchIndex index;
  if (synthetic_docs > 0) {
    const auto synthetic = pdcu::search::corpus::synthetic_repository(
        {synthetic_docs, seed});
    index =
        pdcu::search::SearchIndex::build(synthetic, &pdcu::rt::default_pool());
  } else {
    index = pdcu::search::SearchIndex::build(repo, &pdcu::rt::default_pool());
  }
  const auto status = pdcu::search::save_index(index, out_path);
  if (!status) {
    std::fprintf(stderr, "index: %s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("indexed %zu activities, %zu terms -> %s\n", index.doc_count(),
              index.term_count(), out_path.c_str());
  return 0;
}

int serve(pdcu::core::Repository repo, int argc, char** argv) {
  pdcu::server::ServerOptions options;
  pdcu::server::ReloadOptions reload_options;
  std::string content_dir;
  std::string index_path;
  std::string access_log_path;
  std::string cluster_id;
  std::string gossip_peers;
  unsigned long gossip_interval_ms = 200;
  bool use_mmap = false;
  bool watch = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--net-shards" && i + 1 < argc) {
      options.net_shards =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-connections" && i + 1 < argc) {
      options.max_connections =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--index" && i + 1 < argc) {
      index_path = argv[++i];
    } else if (arg == "--mmap") {
      use_mmap = true;
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--poll-ms" && i + 1 < argc) {
      reload_options.poll_interval =
          std::chrono::milliseconds(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--access-log" && i + 1 < argc) {
      access_log_path = argv[++i];
    } else if (arg == "--cluster-id" && i + 1 < argc) {
      cluster_id = argv[++i];
    } else if (arg == "--gossip-peers" && i + 1 < argc) {
      gossip_peers = argv[++i];
    } else if (arg == "--gossip-ms" && i + 1 < argc) {
      gossip_interval_ms = std::strtoul(argv[++i], nullptr, 10);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "serve: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      content_dir = arg;
    }
  }
  if (watch && content_dir.empty()) {
    std::fprintf(stderr, "serve: --watch requires a content directory\n");
    return 2;
  }

  // Content health surfaces on /healthz; the reload loop (--watch)
  // additionally reports through pdcu_reload_* on /metrics. The span
  // registry and access log both outlive the server (router snapshots and
  // shard threads hold pointers into them until run_until_signalled
  // returns).
  pdcu::server::HealthTracker health;
  pdcu::server::ReloadMetrics reload_metrics;
  pdcu::obs::SpanRegistry spans;
  std::optional<pdcu::obs::AccessLog> access_log;
  if (!access_log_path.empty()) {
    access_log.emplace(access_log_path);
    if (!access_log->ok()) {
      std::fprintf(stderr, "serve: cannot open access log '%s'\n",
                   access_log_path.c_str());
      return 1;
    }
    options.access_log = &*access_log;
  }
  std::uint64_t fingerprint = 0;
  std::size_t quarantined = 0;
  if (!content_dir.empty()) {
    // Lenient load: malformed community content degrades the serving set
    // instead of keeping the whole site down.
    auto fingerprinted = pdcu::server::content_fingerprint(content_dir);
    auto loaded = pdcu::core::Repository::load_lenient(content_dir);
    if (!loaded) {
      std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
      return 1;
    }
    auto& report = loaded.value();
    if (report.degraded()) {
      std::fprintf(stderr, "serve: DEGRADED —\n%s",
                   report.render_report().c_str());
    }
    health.set_content(report.loaded(), report.quarantined_slugs());
    quarantined = report.quarantined.size();
    fingerprint = fingerprinted ? fingerprinted.value() : 0;
    repo = std::move(report.repository);
  } else {
    health.set_content(repo.activities().size(), {});
  }

  // Cold-start search from a prebuilt index file (--mmap serves straight
  // from the mapped file: no heap copy of postings or document text), or
  // build it here in parallel before the server accepts traffic.
  if (use_mmap && index_path.empty()) {
    std::fprintf(stderr, "serve: --mmap requires --index FILE\n");
    return 2;
  }
  std::optional<pdcu::search::SearchIndex> index;
  if (!index_path.empty()) {
    auto loaded = use_mmap ? pdcu::search::mmap_index(index_path)
                           : pdcu::search::load_index(index_path);
    if (!loaded) {
      std::fprintf(stderr, "serve: %s\n", loaded.error().message.c_str());
      return 1;
    }
    index = std::move(loaded).value();
  } else {
    index = pdcu::search::SearchIndex::build(repo, &pdcu::rt::default_pool(),
                                             &spans);
  }

  pdcu::rt::TraceLog trace;
  pdcu::site::SiteOptions site_options;
  site_options.pool = &pdcu::rt::default_pool();
  site_options.trace = &trace;
  site_options.quarantined_inputs = quarantined;
  site_options.spans = &spans;
  pdcu::site::BuildStats build_stats;
  // Build through a BuildCache so a --watch reload only re-renders the
  // pages whose inputs actually changed.
  pdcu::site::BuildCache cache;
  const auto site =
      pdcu::site::rebuild(repo, cache, site_options, &build_stats);
  pdcu::server::Router router(site, repo, std::move(index));
  router.set_build_stats(build_stats);
  router.set_health(&health);
  router.set_spans(&spans);
  // Shard /api/search across the default pool: handlers run on the
  // reactor's shard threads, never on the pool they would wait for.
  router.set_search_pool(&pdcu::rt::default_pool());
  if (watch) router.set_reload_metrics(&reload_metrics);
  // Cluster membership: with --cluster-id the replica answers
  // /cluster/gossip and (given --gossip-peers host:port,...) initiates
  // rounds, pulling its own (epoch, degraded) from the health tracker
  // before every exchange so a failed rebuild's degraded epoch spreads
  // without the reload path knowing gossip exists.
  std::optional<pdcu::cluster::GossipAgent> gossip;
  if (!cluster_id.empty()) {
    gossip.emplace(cluster_id);
    gossip->set_self_source([&health] {
      return std::make_pair(health.epoch(), health.degraded());
    });
    gossip->update_self(health.epoch(), health.degraded());
    std::vector<pdcu::cluster::GossipPeer> peers;
    for (const auto& entry :
         pdcu::strings::split(gossip_peers, ',')) {
      const auto colon = entry.rfind(':');
      if (entry.empty() || colon == std::string::npos) continue;
      peers.push_back({entry.substr(0, colon),
                       static_cast<std::uint16_t>(std::strtoul(
                           entry.c_str() + colon + 1, nullptr, 10))});
    }
    const bool has_peers = !peers.empty();
    if (has_peers) gossip->set_peers(std::move(peers));
    router.set_gossip(&*gossip);
    if (has_peers && gossip_interval_ms > 0) {
      gossip->start(std::chrono::milliseconds(gossip_interval_ms));
    }
  }
  pdcu::server::HttpServer server(std::move(router), options, &trace);
  auto status = server.start();
  if (!status) {
    std::fprintf(stderr, "serve: %s\n", status.error().message.c_str());
    return 1;
  }
  std::optional<pdcu::server::ReloadManager> reloader;
  if (watch) {
    reloader.emplace(content_dir, server, health, reload_metrics,
                     std::move(cache), fingerprint, reload_options, &trace);
    reloader->set_spans(&spans);
    reloader->start();
  }
  std::printf("pdcu serving %zu pages on http://%s:%u/%s (Ctrl-C to stop)\n",
              site.pages.size(), options.host.c_str(),
              static_cast<unsigned>(server.port()),
              watch ? " [watching]" : "");
  // A machine-parseable port line, flushed before blocking: with --port 0
  // the ephemeral port is unknowable in advance, and scripts (loadgen
  // wrappers, CI) read it from here — an unflushed buffer would leave
  // them hanging until shutdown when stdout is a pipe.
  std::printf("listening port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.run_until_signalled();
  if (reloader.has_value()) reloader->stop();
  if (gossip.has_value()) gossip->stop();
  if (access_log.has_value()) access_log->flush();
  std::fputs(server.metrics().render_text().c_str(), stdout);
  std::fputs(trace.render_script().c_str(), stdout);
  const std::string span_summary = spans.summary();
  if (!span_summary.empty()) std::fputs(span_summary.c_str(), stdout);
  return 0;
}

volatile std::sig_atomic_t g_cluster_stop = 0;

extern "C" void on_cluster_signal(int) { g_cluster_stop = 1; }

/// The path of the running pdcu binary — replicas are spawned from the
/// same build that fronts them.
std::string self_exe_path() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "./pdcu";
  buffer[n] = '\0';
  return buffer;
}

int cluster_cmd(int argc, char** argv) {
  bool sim = false;
  bool print_log = false;
  std::string scenario = "none";
  std::string content_dir;
  pdcu::cluster::SimOptions sim_options;
  pdcu::cluster::FleetOptions fleet_options;
  fleet_options.cli_path = self_exe_path();
  std::uint16_t front_port = 0;
  unsigned replicas = 3;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sim") {
      sim = true;
    } else if (arg == "--log") {
      print_log = true;
    } else if (arg == "--replicas" && i + 1 < argc) {
      replicas = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seed" && i + 1 < argc) {
      sim_options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--requests" && i + 1 < argc) {
      sim_options.requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration-ms" && i + 1 < argc) {
      sim_options.duration_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario = argv[++i];
    } else if (arg == "--base-port" && i + 1 < argc) {
      fleet_options.base_port = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--front-port" && i + 1 < argc) {
      front_port = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--watch") {
      fleet_options.watch = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "cluster: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      content_dir = arg;
    }
  }

  if (sim) {
    sim_options.replicas = replicas;
    const std::uint64_t third = sim_options.duration_ms / 3;
    using Kind = pdcu::cluster::SimEvent::Kind;
    if (scenario == "kill-one") {
      sim_options.events.push_back({third, Kind::kKill, 0});
      sim_options.events.push_back({2 * third, Kind::kRestart, 0});
    } else if (scenario == "degrade-one") {
      sim_options.events.push_back({third, Kind::kDegrade, 0});
      sim_options.events.push_back({2 * third, Kind::kRecover, 0});
    } else if (scenario == "partition") {
      // Replica 0 loses its link to the front tier for the middle third;
      // requests routed at it burn the attempt timeout, then fail over.
      sim_options.fault.partition(
          {0}, {static_cast<int>(sim_options.front_node())},
          static_cast<std::int64_t>(third),
          static_cast<std::int64_t>(2 * third));
    } else if (scenario != "none") {
      std::fprintf(stderr,
                   "cluster: --scenario expects kill-one|degrade-one|"
                   "partition|none, got '%s'\n",
                   scenario.c_str());
      return 2;
    }
    const auto report = pdcu::cluster::run_sim(sim_options);
    if (print_log) {
      for (const auto& line : report.log) {
        std::fprintf(stderr, "%s\n", line.c_str());
      }
    }
    std::fputs(report.render_json().c_str(), stdout);
    return report.client_errors == 0 ? 0 : 1;
  }

  // Real mode: spawn the replica fleet as `pdcu serve` subprocesses, then
  // front them in this process.
  fleet_options.replicas = replicas;
  fleet_options.content_dir = content_dir;
  pdcu::cluster::Fleet fleet(fleet_options);
  if (const auto status = fleet.start(); !status) {
    std::fprintf(stderr, "cluster: %s\n", status.error().message.c_str());
    return 1;
  }
  pdcu::cluster::FrontOptions front_options;
  front_options.port = front_port;
  pdcu::cluster::FrontTier front(front_options, fleet.targets());
  if (const auto status = front.start(); !status) {
    std::fprintf(stderr, "cluster: %s\n", status.error().message.c_str());
    fleet.stop_all();
    return 1;
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    std::printf("replica-%zu port=%u pid=%d\n", i,
                static_cast<unsigned>(fleet.replica(i).port()),
                static_cast<int>(fleet.replica(i).pid()));
  }
  std::printf("pdcu cluster fronting %u replicas (Ctrl-C to stop)\n",
              replicas);
  // Same machine-parseable contract as `pdcu serve`: the front tier's
  // port, flushed before blocking.
  std::printf("listening port=%u\n", static_cast<unsigned>(front.port()));
  std::fflush(stdout);

  g_cluster_stop = 0;
  std::signal(SIGINT, on_cluster_signal);
  std::signal(SIGTERM, on_cluster_signal);
  while (g_cluster_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  front.stop();
  fleet.stop_all();
  std::fputs(front.metrics().render_text().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  auto repo = pdcu::core::Repository::builtin();

  if (command == "list") {
    for (const auto& a : repo.activities()) {
      std::printf("%-28s %-34s %d\n", a.slug.c_str(), a.title.c_str(),
                  a.year);
    }
    return 0;
  }
  if (command == "show" && argc >= 3) {
    const auto* activity = repo.find(argv[2]);
    if (activity == nullptr) {
      std::fprintf(stderr, "no activity '%s'\n", argv[2]);
      return 1;
    }
    std::fputs(pdcu::site::render_activity_header_ansi(*activity).c_str(),
               stdout);
    return 0;
  }
  if (command == "new" && argc >= 3) {
    std::fputs(pdcu::core::instantiate_activity(argv[2],
                                                pdcu::Date{2020, 1, 1})
                   .c_str(),
               stdout);
    return 0;
  }
  if (command == "validate") {
    if (argc >= 3) {
      auto loaded = pdcu::core::Repository::load(argv[2]);
      if (!loaded) {
        std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
        return 1;
      }
      repo = std::move(loaded).value();
    }
    auto findings = repo.validate();
    for (const auto& f : findings) {
      std::printf("%s: [%s] %s\n",
                  f.severity == pdcu::core::Severity::kError ? "error"
                                                             : "warning",
                  f.code.c_str(), f.message.c_str());
    }
    std::printf("%zu findings; publishable: %s\n", findings.size(),
                pdcu::core::is_publishable(findings) ? "yes" : "no");
    return pdcu::core::is_publishable(findings) ? 0 : 1;
  }
  if (command == "check") {
    return check(argc, argv);
  }
  if (command == "build") {
    return build_cmd(std::move(repo), argc, argv);
  }
  if (command == "serve") {
    return serve(std::move(repo), argc, argv);
  }
  if (command == "cluster") {
    return cluster_cmd(argc, argv);
  }
  if (command == "loadgen") {
    return loadgen_cmd(argc, argv);
  }
  if (command == "stencil") {
    return stencil_cmd(argc, argv);
  }
  if (command == "search") {
    return search(repo, argc, argv);
  }
  if (command == "index") {
    return build_index(repo, argc, argv);
  }
  if (command == "tables") {
    auto coverage = repo.coverage();
    std::printf("TABLE I: CS2013 COVERAGE\n%s\n",
                coverage.render_cs2013_table().c_str());
    std::printf("TABLE II: TCPP COVERAGE\n%s",
                coverage.render_tcpp_table().c_str());
    return 0;
  }
  if (command == "gaps") {
    std::fputs(repo.gaps().render_report().c_str(), stdout);
    return 0;
  }
  if (command == "impact") {
    std::fputs(pdcu::ext::render_impact_report().c_str(), stdout);
    return 0;
  }
  if (command == "json") {
    std::fputs(pdcu::site::render_json_catalog(repo).c_str(), stdout);
    return 0;
  }
  if (command == "audit") {
    std::fputs(pdcu::core::render_link_audit(
                   pdcu::core::audit_links(repo.activities()))
                   .c_str(),
               stdout);
    return 0;
  }
  if (command == "plan" && argc >= 3) {
    const std::size_t sessions =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 4;
    auto plan =
        pdcu::core::plan_course(repo.activities(), argv[2], sessions);
    std::fputs(plan.render().c_str(), stdout);
    return plan.sessions.empty() ? 1 : 0;
  }
  if (command == "annotate" && argc >= 5) {
    auto status = pdcu::core::annotate_assessment(argv[2], argv[3], argv[4]);
    if (!status) {
      std::fprintf(stderr, "%s\n", status.error().message.c_str());
      return 1;
    }
    std::printf("recorded a classroom experience on '%s'\n", argv[3]);
    return 0;
  }
  if (command == "run" && argc >= 3) {
    const auto* sim = pdcu::act::find_simulation(argv[2]);
    if (sim == nullptr) {
      std::fprintf(stderr, "no simulation '%s'; available:\n", argv[2]);
      for (const auto& s : pdcu::act::simulations()) {
        std::fprintf(stderr, "  %s\n", s.slug.c_str());
      }
      return 1;
    }
    const std::uint64_t seed =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 42;
    auto report = sim->run(seed);
    std::printf("%s — %s\n%s\n", sim->name.c_str(),
                sim->description.c_str(), report.summary.c_str());
    if (!report.script.empty()) {
      std::printf("\nclassroom script:\n%s", report.script.c_str());
    }
    return report.ok ? 0 : 1;
  }
  return usage();
}
