// The serving workloads: browse, search_corpus and author_reload. Each sets
// up the real serving stack in process (site build, search index, Router,
// HttpServer on the reactor backend), drives it open loop from the
// benchmark's own client, and checks every answer it can.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "client.hpp"
#include "pdcu/core/activity_io.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/reload.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/slug.hpp"
#include "pdcu/taxonomy/taxonomy.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = pdcu::core;
namespace rt = pdcu::rt;
namespace search = pdcu::search;
namespace server = pdcu::server;
namespace site = pdcu::site;
namespace tax = pdcu::tax;
namespace net = pdcu::net;

// The request path runs on one CPU (see OneCpu), so one reactor shard;
// two client connections, each on its own thread.
constexpr unsigned kShards = 1;
constexpr unsigned kConnections = 2;

/// author_reload edits once per this period; reloading an edit of its
/// corpus takes about 200 ms on a 4-vCPU VM, so reads are contended about
/// a fifth of the time.
constexpr std::uint64_t kEditPeriodNs = 1'000'000'000;

/// Query words for browse: the built-in curation's own vocabulary, most
/// popular first, so queries hit real postings.
const std::vector<std::string> kBrowseTerms = {
    "parallel", "sorting",  "cards",     "students",  "message",
    "race",     "pipeline", "speedup",   "deadlock",  "broadcast",
    "scaling",  "distributed", "algorithm", "communication", "sum",
    "network",  "processor", "memory",   "task",      "thread",
    "tree",     "graph",    "matrix",    "mutual",    "exclusion",
    "consensus", "load",    "balance",   "search",    "data"};

double ms_between(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

/// One set-up serving stack. Members are destroyed in reverse order: the
/// reload manager before the server it swaps into, the server before the
/// health and reload telemetry its routers point at.
struct Stack {
  core::Repository repo{std::vector<core::Activity>{}};
  site::BuildStats build;
  double site_ms = 0.0;
  double index_ms = 0.0;
  double router_ms = 0.0;
  std::filesystem::path content_dir;  ///< set when serving from disk
  server::HealthTracker health;
  server::ReloadMetrics reload_metrics;
  std::unique_ptr<server::HttpServer> server;
  std::unique_ptr<server::ReloadManager> manager;

  ~Stack() {
    manager.reset();
    if (server) server->stop();
  }
};

/// Builds the site, index and router for `repo` and starts a reactor
/// server on an ephemeral port. With `content_dir`, a ReloadManager
/// watches it (driven by check_once, never by its own thread).
std::unique_ptr<Stack> serve(core::Repository repo, unsigned shards,
                             const std::filesystem::path& content_dir = {}) {
  auto stack = std::make_unique<Stack>();
  stack->repo = std::move(repo);
  stack->content_dir = content_dir;
  site::SiteOptions options;
  options.pool = &rt::default_pool();
  // Serving from disk keeps the build cache for incremental reloads.
  site::BuildCache cache;
  std::uint64_t t = now_ns();
  const site::Site built =
      content_dir.empty()
          ? site::build_site(stack->repo, options, &stack->build)
          : site::rebuild(stack->repo, cache, options, &stack->build);
  stack->site_ms = ms_between(t, now_ns());
  t = now_ns();
  auto index = search::SearchIndex::build(stack->repo, &rt::default_pool());
  stack->index_ms = ms_between(t, now_ns());
  t = now_ns();
  server::Router router(built, stack->repo, std::move(index));
  router.set_build_stats(stack->build);
  router.set_health(&stack->health);
  router.set_reload_metrics(&stack->reload_metrics);
  stack->router_ms = ms_between(t, now_ns());
  stack->health.set_content(stack->repo.activities().size(), {});

  server::ServerOptions server_options;
  server_options.port = 0;
  server_options.backend = server::Backend::kReactor;
  server_options.net_shards = shards;
  stack->server =
      std::make_unique<server::HttpServer>(std::move(router), server_options);
  const auto started = stack->server->start();
  require(started.has_value(), "server failed to start");
  if (!content_dir.empty()) {
    const auto fingerprint = server::content_fingerprint(content_dir);
    require(fingerprint.has_value(), "content fingerprint failed");
    stack->manager = std::make_unique<server::ReloadManager>(
        content_dir, *stack->server, stack->health, stack->reload_metrics,
        std::move(cache), fingerprint.value(),
        server::ReloadOptions{.backoff_initial = std::chrono::milliseconds(0)});
  }
  return stack;
}

/// Exports `repo` to a fresh `dir` and serves it from disk, loading it back
/// the way a serving process does.
std::unique_ptr<Stack> serve_from_disk(const core::Repository& repo,
                                       const std::filesystem::path& dir,
                                       unsigned shards) {
  std::filesystem::remove_all(dir);
  const std::uint64_t t0 = now_ns();
  require(repo.export_to(dir).has_value(), "export failed");
  const std::uint64_t t1 = now_ns();
  auto loaded = core::Repository::load_lenient(dir);
  require(loaded.has_value() && !loaded.value().degraded(),
          "exported content did not load cleanly");
  const std::uint64_t t2 = now_ns();
  auto stack = serve(std::move(loaded.value().repository), shards, dir);
  std::fprintf(stderr,
               "  set-up from disk: export %.1f ms, load %.1f ms, site %.1f "
               "ms, index %.1f ms, router %.1f ms\n",
               ms_between(t0, t1), ms_between(t1, t2), stack->site_ms,
               stack->index_ms, stack->router_ms);
  return stack;
}

Inputs inputs_for(const core::Repository& repo,
                  const std::vector<std::string>& terms, bool filters) {
  Inputs inputs;
  for (const auto& activity : repo.activities()) {
    inputs.slugs.push_back(activity.slug);
  }
  inputs.terms = terms;
  if (filters) {
    for (const auto& term : repo.index().terms(tax::keys::kCs2013)) {
      inputs.filters.push_back("cs2013:" + term);
    }
    for (const auto& term : repo.index().terms(tax::keys::kTcpp)) {
      inputs.filters.push_back("tcpp:" + term);
    }
  }
  return inputs;
}

/// The request path of a target (up to '?').
std::string_view path_of(const std::string& target) {
  return std::string_view(target).substr(0, target.find('?'));
}

/// Hit slugs of a /api/search body, in rank order.
std::vector<std::string> hit_slugs(std::string_view body) {
  std::vector<std::string> slugs;
  constexpr std::string_view kKey = "{\"slug\":\"";
  for (std::size_t at = body.find(kKey); at != std::string_view::npos;
       at = body.find(kKey, at)) {
    at += kKey.size();
    const std::size_t end = body.find('"', at);
    if (end == std::string_view::npos) break;
    slugs.emplace_back(body.substr(at, end - at));
  }
  return slugs;
}

/// Answers of a seeded sample of search requests, checked after the phase
/// against exhaustive top-k (so the check never delays the client).
struct SearchSample {
  std::mutex mutex;
  std::vector<std::pair<std::string, std::string>> answers;  ///< text, body
  static constexpr std::size_t kEvery = 7;
  static constexpr std::size_t kMax = 120;

  void offer(std::size_t index, const Planned& request, std::string_view body) {
    if (index % kEvery != 0) return;
    std::lock_guard lock(mutex);
    if (answers.size() < kMax) {
      answers.emplace_back(search_text(request), std::string(body));
    }
  }
};

void check_search_sample(SearchSample& sample, const search::SearchIndex& index,
                         const tax::TermIndex& taxonomy, Outcome& out) {
  search::SearchOptions exhaustive;
  exhaustive.limit = 10;
  exhaustive.algo = search::SearchOptions::Algo::kExhaustive;
  exhaustive.snippets = false;
  for (const auto& [text, body] : sample.answers) {
    std::vector<std::string> expected;
    for (const auto& hit :
         index.search(search::parse_query(text), &taxonomy, exhaustive)) {
      expected.push_back(hit.slug);
    }
    out.check(hit_slugs(body) == expected, "search answer differs from "
                                           "exhaustive top-k: " + text);
  }
}

/// Checks for read traffic against content that does not change during the
/// phase: cached routes must return the PageCache entry's exact body and
/// ETag (304 for conditional GETs); searches must answer 200 JSON. With
/// `every` above 1 only every such request of the schedule gets the full
/// check and the rest the status alone, so that a closed loop's capacity
/// counts little of the client's own checking.
struct StaticChecks {
  std::shared_ptr<const server::Router> router;
  SearchSample* searches = nullptr;
  std::size_t every = 1;

  bool operator()(std::size_t index, const Planned& request,
                  const Reply& reply) const {
    if (index % every != 0) {
      return reply.status == (request.conditional ? 304 : 200);
    }
    if (request.kind == Kind::kSearch) {
      const bool ok = reply.status == 200 && reply.body.starts_with("{\"query\":");
      if (ok && searches != nullptr) searches->offer(index, request, reply.body);
      return ok;
    }
    const server::CachedEntry* entry = router->cache().find(path_of(request.target));
    if (entry == nullptr || reply.etag != entry->etag) return false;
    if (request.conditional) return reply.status == 304 && reply.body.empty();
    return reply.status == 200 && reply.body == entry->body;
  }
};

/// If-None-Match with the current ETag of the requested page.
ExtraHeaders conditional_headers(const server::HttpServer& http) {
  return [&http](const Planned& request) -> std::string {
    if (!request.conditional) return {};
    const auto router = http.router();
    const server::CachedEntry* entry = router->cache().find(path_of(request.target));
    return entry == nullptr ? std::string()
                            : "If-None-Match: " + entry->etag + "\r\n";
  };
}

struct PhaseStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
};

/// Latency percentiles as the median over one-second windows of each
/// window's own p50 and p99. On a shared VM the host stalls the whole CPU
/// now and then, client included; over all samples the percentiles then
/// measured the stalls of that run, while a stall that hits a few windows
/// does not move these.
PhaseStats summarize(std::vector<std::vector<double>> windows) {
  PhaseStats stats;
  std::vector<double> p50, p99;
  for (auto& window : windows) {
    if (window.empty()) continue;
    stats.samples += window.size();
    p50.push_back(percentile(window, 0.50));
    p99.push_back(percentile(window, 0.99));
  }
  stats.p50_us = median(p50);
  stats.p99_us = median(p99);
  return stats;
}

/// The latencies of `run` in one-second windows of due time.
std::vector<std::vector<double>> windows_of(const ClientRun& run) {
  const std::vector<double> latency = latencies_us(run);
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const std::uint64_t due = run.samples[i].due_ns;
    const std::size_t w = due > run.start_ns
                              ? static_cast<std::size_t>(
                                    (due - run.start_ns) / 1'000'000'000ULL)
                              : 0;
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  return windows;
}

/// The figures of an untraced serving run, one per timed chunk, each as
/// measured and with the host slowdown around its chunk (see Probes).
///
/// A run reports the mean over its chunks, not the median: the host
/// switched between a fast and a slow state from second to second, and a
/// median over a dozen chunks jumped between the two states' figures as
/// their shares moved, where the mean moves with the shares.
struct Cycles {
  std::vector<double> p50_us;  ///< request latency p50 at the fixed rate
  std::vector<double> p50_slowdown;
  std::vector<double> rate;    ///< capacity, requests/s
  std::vector<double> rate_slowdown;
  std::uint64_t requests = 0;  ///< open-loop requests behind p50_us
  std::uint64_t closed_replies = 0;
  /// author_reload: each edit's write-to-visible time, already scaled.
  std::vector<double> visible_ms;

  /// The mean over chunks of the latency at a quiet host's speed.
  double latency_us() const {
    double sum = 0.0;
    for (std::size_t k = 0; k < p50_us.size(); ++k) {
      sum += p50_us[k] / p50_slowdown[k];
    }
    return sum / static_cast<double>(p50_us.size());
  }
  /// The mean over chunks of the capacity at a quiet host's speed.
  double capacity() const {
    double sum = 0.0;
    for (std::size_t k = 0; k < rate.size(); ++k) {
      sum += rate[k] * rate_slowdown[k];
    }
    return sum / static_cast<double>(rate.size());
  }
};

/// Closed-loop replies whose body and ETag are checked in full: one in
/// this many of the schedule; the rest are checked by status.
constexpr std::size_t kClosedCheckEvery = 16;

/// The length of each open-loop and each closed-loop chunk of alternate().
constexpr std::uint64_t kChunkNs = 500'000'000;

/// The untraced run of a read-only workload, in one-second cycles: a
/// half-second open-loop chunk at the fixed rate, the host probe, a
/// half-second closed-loop chunk, the host probe.
///
/// Capacity is the request rate the server sustains while the connections
/// send back to back, the offered rate beyond which an open-loop backlog
/// grows. On a shared 4-vCPU VM the knee where an open-loop p99 crosses a
/// fixed limit moved by +-20% between runs. Each closed-loop chunk goes on
/// where the last one stopped in a mix of 60k requests, so a run's capacity
/// averages over tens of thousands of different requests: search costs are
/// heavy-tailed, and a capacity taken over the same few thousand requests
/// in every chunk depended on which queries the seed put there.
Cycles alternate(const Stack& stack, const Plan& plan, Probe probe,
                 const Inputs& inputs, const RunConfig& config, Outcome& out) {
  const auto chunks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(config.seconds)));
  const double chunk_s = static_cast<double>(kChunkNs) / 1e9;
  const auto schedule =
      make_schedule(plan.traffic, inputs, plan.rate,
                    static_cast<double>(chunks) * chunk_s, config.seed);
  // The closed loop cycles through its own schedule, whose rate is unused.
  auto mix = make_schedule(plan.traffic, inputs, 1000.0, 60.0,
                           config.seed * 131 + 1);
  const auto router = stack.server->router();
  ClientOptions options;
  options.port = stack.server->port();
  options.connections = kConnections;
  SearchSample searches;
  std::vector<double> late;
  Cycles cycles;
  Probes host(probe);
  std::size_t next = 0;
  for (std::uint64_t k = 0; k < chunks; ++k) {
    std::vector<Planned> slice;
    while (next < schedule.size() && schedule[next].due_ns < (k + 1) * kChunkNs) {
      slice.push_back(schedule[next++]);
      slice.back().due_ns -= k * kChunkNs;
    }
    const ClientRun run =
        run_open_loop(slice, options, StaticChecks{router, &searches},
                      conditional_headers(*stack.server));
    cycles.p50_slowdown.push_back(host.after_chunk());
    out.attempted += run.samples.size();
    out.failed += run.failed;
    cycles.requests += run.samples.size();
    std::vector<double> latency = latencies_us(run);
    const std::vector<double> chunk_late = lateness_us(run);
    late.insert(late.end(), chunk_late.begin(), chunk_late.end());
    cycles.p50_us.push_back(percentile(latency, 0.50));
    const ClientRun closed = run_closed_loop(
        mix, options, chunk_s,
        StaticChecks{router, nullptr, kClosedCheckEvery},
        conditional_headers(*stack.server));
    cycles.rate_slowdown.push_back(host.after_chunk());
    out.attempted += closed.replies;
    out.failed += closed.failed;
    cycles.closed_replies += closed.replies;
    cycles.rate.push_back(static_cast<double>(closed.replies) * 1e9 /
                          static_cast<double>(closed.end_ns - closed.start_ns));
    std::rotate(mix.begin(), mix.begin() + closed.replies % mix.size(),
                mix.end());
  }
  check_search_sample(searches, router->index(), stack.repo.index(), out);
  std::fprintf(stderr,
               "  %.0f req/s: latency p50 %.1f us, capacity %.0f req/s (at a "
               "quiet host's speed; host slowdown %.3f); generator lateness "
               "p50 %.1f us, p99 %.1f us\n",
               plan.rate, cycles.latency_us(), cycles.capacity(),
               mean(cycles.rate_slowdown), percentile(late, 0.50),
               percentile(late, 0.99));
  return cycles;
}

/// Read checks while content changes underneath: any 200 with a body, or a
/// 304 for a conditional GET whose page has not changed since.
bool changing_check(std::size_t, const Planned& request, const Reply& reply) {
  if (request.kind == Kind::kSearch) {
    return reply.status == 200 && reply.body.starts_with("{\"query\":");
  }
  if (request.conditional && reply.status == 304) return reply.body.empty();
  return reply.status == 200 && !reply.body.empty() && !reply.etag.empty();
}

/// Single-activity edits applied through the content directory, each
/// followed by ReloadManager::check_once and GETs of the edited page until
/// it shows the edit. Most edits change the body; about one in five also
/// toggles a course tag, which invalidates term and view pages too.
class Editor {
 public:
  Editor(Stack& stack, std::uint64_t seed)
      : stack_(stack),
        rng_(seed ^ 0xed17ed17ULL),
        seed_(seed),
        current_(stack.repo.activities()),
        courses_(stack.repo.index().terms(tax::keys::kCourses)),
        connection_(stack.server->port()) {}

  /// One edit, start to visible. Returns false when a step failed.
  bool edit(Outcome& out, SpanLog* spans) {
    const std::size_t index = rng_.below(current_.size());
    core::Activity& activity = current_[index];
    // The trailing 'z' keeps marker n1 from matching inside marker n10.
    const std::string marker = "pdcuedit" + std::to_string(seed_) + "n" +
                               std::to_string(edits_) + "z";
    const std::size_t cut = activity.details.find("\n\nRevision pdcuedit");
    activity.details = activity.details.substr(0, cut) + "\n\nRevision " +
                       marker + ".";
    if (!courses_.empty() && rng_.chance(0.2)) {
      const std::string& course = courses_[rng_.below(courses_.size())];
      auto& tags = activity.courses;
      const auto at = std::find(tags.begin(), tags.end(), course);
      if (at == tags.end()) {
        tags.push_back(course);
      } else {
        tags.erase(at);
      }
    }
    const std::string text = core::write_activity(activity);
    const std::uint64_t written = now_ns();
    {
      std::ofstream file(stack_.content_dir / "activities" /
                             (activity.slug + ".md"),
                         std::ios::trunc | std::ios::binary);
      file << text;
    }
    const std::uint64_t reload_start = now_ns();
    const auto step = stack_.manager->check_once();
    const std::uint64_t reloaded = now_ns();
    check_once_ms.push_back(ms_between(reload_start, reloaded));
    out.check(step == server::ReloadManager::Step::kReloaded,
              "reload of edit " + marker + " did not swap");
    const std::string target = "/activities/" + activity.slug + "/";
    bool visible = false;
    for (int attempt = 0; attempt < 200 && !visible; ++attempt) {
      const Fetch page = connection_.get(target);
      visible = page.status == 200 &&
                page.body.find(marker) != std::string::npos;
      if (!visible) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    const std::uint64_t seen = now_ns();
    out.check(visible, "edit " + marker + " never became visible");
    visible_ms.push_back(ms_between(written, seen));
    if (spans != nullptr) {
      const auto root = spans->add("edit", 0, written, seen);
      spans->add("edit.write", root, written, reload_start);
      spans->add("reload.check_once", root, reload_start, reloaded);
      spans->add("edit.visible", root, reloaded, seen);
    }
    ++edits_;
    return visible;
  }

  std::vector<double> visible_ms;
  std::vector<double> check_once_ms;

 private:
  Stack& stack_;
  Rng rng_;
  std::uint64_t seed_;
  std::size_t edits_ = 0;
  std::vector<core::Activity> current_;
  std::vector<std::string> courses_;
  Connection connection_;
};

/// One edit every kEditPeriodNs from `start_ns` until `end_ns`. Returns the
/// edit rate the reload pipeline sustains, one over the median time from
/// an edit's write to the first GET that serves it. The pause between
/// edits leaves reads uncontended part of the time, so the read p50 is the
/// quiet path and the p99 the contended one.
double edit_until(Editor& editor, std::uint64_t start_ns, std::uint64_t end_ns,
                  Outcome& out, SpanLog* spans) {
  const std::size_t first = editor.visible_ms.size();
  for (std::uint64_t due = start_ns; due < end_ns; due += kEditPeriodNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(std::max(due, now_ns()))));
    editor.edit(out, spans);
  }
  const std::vector<double> visible(editor.visible_ms.begin() + first,
                                    editor.visible_ms.end());
  return visible.empty() ? 0.0 : 1000.0 / median(visible);
}

/// Everything that differs between the serving workloads.
struct Workload {
  Plan plan;
  std::vector<std::string> terms;  ///< search vocabulary, popular first
  bool filters = false;            ///< add cs2013:/tcpp: filters to queries
  bool edits = false;              ///< author_reload: edits beside reads
  /// The probe that tracks the host speed this workload's figures follow:
  /// the loopback path for browse's small cached pages, streaming reads for
  /// search ranking over postings far larger than L2, the core for
  /// author_reload (see host_slowdown).
  Probe probe = Probe::kLoopback;
  std::filesystem::path content_dir;  ///< where setup exports, if it does
  std::function<std::unique_ptr<Stack>()> setup;
};

/// One fixed-rate read phase (with the editor running beside it when the
/// workload edits). Checks count into `out`.
struct Phase {
  std::vector<Planned> schedule;
  ClientRun run;
  PhaseStats stats;
  double edits_per_s = 0.0;
  std::size_t edits = 0;
};

Phase read_phase(Stack& stack, const Workload& w, const Inputs& inputs,
                 std::uint64_t seed, double seconds, Editor* editor,
                 SearchSample* searches, SpanLog* spans, Outcome& out) {
  Phase phase;
  phase.schedule = make_schedule(w.plan.traffic, inputs, w.plan.rate, seconds,
                                 seed);
  ClientOptions options;
  options.port = stack.server->port();
  options.connections = kConnections;
  options.spans = spans;
  options.start_ns = now_ns() + 20'000'000ULL;
  std::thread writer;
  Outcome edit_checks;
  if (editor != nullptr) {
    const auto end = options.start_ns +
                     static_cast<std::uint64_t>(seconds * 1e9);
    writer = std::thread([&, end] {
      const std::size_t before = editor->visible_ms.size();
      phase.edits_per_s =
          edit_until(*editor, options.start_ns, end, edit_checks, spans);
      phase.edits = editor->visible_ms.size() - before;
    });
  }
  if (editor != nullptr) {
    phase.run = run_open_loop(phase.schedule, options, changing_check,
                              conditional_headers(*stack.server));
  } else {
    phase.run = run_open_loop(phase.schedule, options,
                              StaticChecks{stack.server->router(), searches},
                              conditional_headers(*stack.server));
  }
  if (writer.joinable()) writer.join();
  phase.stats = summarize(windows_of(phase.run));
  std::vector<double> late = lateness_us(phase.run);
  std::fprintf(stderr,
               "  %.0f req/s for %.1f s: latency p50 %.1f us, p99 %.1f us; "
               "generator lateness p50 %.1f us, p99 %.1f us\n",
               w.plan.rate, seconds, phase.stats.p50_us, phase.stats.p99_us,
               percentile(late, 0.50), percentile(late, 0.99));
  out.attempted += phase.run.samples.size() + edit_checks.attempted;
  out.failed += phase.run.failed + edit_checks.failed;
  for (auto& e : edit_checks.errors) out.errors.push_back(std::move(e));
  if (phase.run.failed > 0) {
    out.errors.push_back(std::to_string(phase.run.failed) +
                         " read requests failed");
  }
  return phase;
}

/// The untraced run of author_reload, in one-second cycles: reads at the
/// fixed rate with one edit reloaded beside them, then the host probe. The
/// read latency and the edit's write-to-visible time are both scaled by
/// the slowdown around the cycle: the reload runs on the pool across every
/// CPU, and the speed the spin probe tracks is the host's clock, which all
/// of them share.
Cycles edit_cycles(Stack& stack, const Workload& w, const Inputs& inputs,
                   const RunConfig& config, Editor& editor, Outcome& out) {
  Cycles cycles;
  Probes host(w.probe);
  const auto chunks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(config.seconds)));
  for (std::uint64_t k = 0; k < chunks; ++k) {
    const std::size_t edits = editor.visible_ms.size();
    const Phase phase =
        read_phase(stack, w, inputs, config.seed * 7919 + k, 1.0, &editor,
                   nullptr, nullptr, out);
    const double slowdown = host.after_chunk();
    cycles.requests += phase.run.samples.size();
    cycles.p50_us.push_back(phase.stats.p50_us);
    cycles.p50_slowdown.push_back(slowdown);
    for (std::size_t e = edits; e < editor.visible_ms.size(); ++e) {
      cycles.visible_ms.push_back(editor.visible_ms[e] / slowdown);
    }
  }
  return cycles;
}

/// Distinct query texts of a schedule's searches, in first-seen order.
std::vector<std::string> distinct_queries(const std::vector<Planned>& schedule,
                                          std::size_t max) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& r : schedule) {
    if (r.kind != Kind::kSearch) continue;
    std::string text = search_text(r);
    if (seen.insert(text).second) out.push_back(std::move(text));
    if (out.size() >= max) break;
  }
  return out;
}

/// server.*: replays the traced phase's requests through the layers a
/// request crosses in process (parse_request, Router::try_fast, then
/// Router::handle and serialize on a miss), and net.residual_p50_us: what
/// the end-to-end p50 leaves for the kernel, the wire and the client.
void server_layers(const Stack& stack, const Phase& traced, SpanLog& spans,
                   Outcome& out) {
  const auto router = stack.server->router();
  std::vector<double> parse, fast, handle, serialize, total;
  std::size_t hits = 0;
  const std::size_t step = std::max<std::size_t>(1, traced.schedule.size() / 4000);
  for (std::size_t i = 0; i < traced.schedule.size(); i += step) {
    const Planned& planned = traced.schedule[i];
    std::string bytes = "GET " + planned.target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (planned.conditional) {
      if (const auto* entry = router->cache().find(path_of(planned.target))) {
        bytes += "If-None-Match: " + entry->etag + "\r\n";
      }
    }
    bytes += "\r\n";
    const std::uint64_t t0 = now_ns();
    const server::ParseResult parsed = server::parse_request(bytes);
    const std::uint64_t t1 = now_ns();
    const auto hit = router->try_fast(parsed.request);
    const std::uint64_t t2 = now_ns();
    const auto root = spans.add("replay.request", 0, t0, t2);
    spans.add("server.parse", root, t0, t1);
    spans.add("server.fast", root, t1, t2);
    parse.push_back(static_cast<double>(t1 - t0));
    fast.push_back(static_cast<double>(t2 - t1));
    double in_process = static_cast<double>(t2 - t0);
    if (hit.has_value()) {
      ++hits;
    } else {
      const server::Response response = router->handle(parsed.request);
      const std::uint64_t t3 = now_ns();
      const std::string wire = server::serialize(response);
      const std::uint64_t t4 = now_ns();
      spans.add("server.handle", root, t2, t3);
      spans.add("server.serialize", root, t3, t4);
      handle.push_back(static_cast<double>(t3 - t2));
      serialize.push_back(static_cast<double>(t4 - t3));
      in_process += static_cast<double>(t4 - t2);
    }
    total.push_back(in_process);
  }
  out.add("server.parse_ns.p50", percentile(parse, 0.50), "ns");
  out.add("server.parse_ns.p99", percentile(parse, 0.99), "ns");
  out.add("server.fast_ns.p50", percentile(fast, 0.50), "ns");
  out.add("server.fast_ns.p99", percentile(fast, 0.99), "ns");
  out.add("server.fast_hit_ratio",
          total.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total.size()),
          "ratio");
  out.add("server.handle_ns.p50", percentile(handle, 0.50), "ns");
  out.add("server.handle_ns.p99", percentile(handle, 0.99), "ns");
  out.add("server.serialize_ns.p50", percentile(serialize, 0.50), "ns");
  out.add("net.residual_p50_us",
          traced.stats.p50_us - percentile(total, 0.50) / 1e3, "us");
}

/// search.*: query parsing, ranking with and without snippets, and the
/// pruning speedup of block-max MaxScore over exhaustive scoring.
void search_layers(const search::SearchIndex& index,
                   const tax::TermIndex& taxonomy,
                   const std::vector<std::string>& queries, SpanLog& spans,
                   Outcome& out) {
  std::vector<double> parse_ns, rank_us, snippet_us, speedup;
  search::SearchOptions ranked;
  ranked.snippets = false;
  search::SearchOptions with_snippets;
  search::SearchOptions exhaustive;
  exhaustive.snippets = false;
  exhaustive.algo = search::SearchOptions::Algo::kExhaustive;
  for (const auto& text : queries) {
    const std::uint64_t t0 = now_ns();
    const search::Query query = search::parse_query(text);
    const std::uint64_t t1 = now_ns();
    const auto hits = index.search(query, &taxonomy, ranked);
    const std::uint64_t t2 = now_ns();
    const auto snippeted = index.search(query, &taxonomy, with_snippets);
    const std::uint64_t t3 = now_ns();
    const auto reference = index.search(query, &taxonomy, exhaustive);
    const std::uint64_t t4 = now_ns();
    const auto root = spans.add("replay.search", 0, t0, t4);
    spans.add("search.parse_query", root, t0, t1);
    spans.add("search.rank", root, t1, t2);
    spans.add("search.rank_snippets", root, t2, t3);
    spans.add("search.exhaustive", root, t3, t4);
    out.check(hits.size() == reference.size() &&
                  std::equal(hits.begin(), hits.end(), reference.begin(),
                             [](const auto& a, const auto& b) {
                               return a.doc == b.doc;
                             }),
              "ranked top-k differs from exhaustive: " + text);
    (void)snippeted;
    parse_ns.push_back(static_cast<double>(t1 - t0));
    rank_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    snippet_us.push_back(static_cast<double>((t3 - t2)) / 1e3 -
                         static_cast<double>(t2 - t1) / 1e3);
    speedup.push_back(static_cast<double>(t4 - t3) /
                      std::max(1.0, static_cast<double>(t2 - t1)));
  }
  out.add("search.parse_query_ns.p50", percentile(parse_ns, 0.50), "ns");
  out.add("search.rank_us.p50", percentile(rank_us, 0.50), "us");
  out.add("search.rank_us.p99", percentile(rank_us, 0.99), "us");
  out.add("search.snippet_us.p50", percentile(snippet_us, 0.50), "us");
  out.add("search.prune_speedup", percentile(speedup, 0.50), "x");
}

/// core.*, site.rebuild*, markdown.*, search.build_ms, server.router_build_ms,
/// server.swap_us, reload.*: `edits` single-activity edits of a stack served
/// from disk, each pushed through the reload pipeline's layers one call at
/// a time with the benchmark's own build cache, then through the
/// ReloadManager, then GET until visible.
void authoring_layers(Stack& stack, std::uint64_t seed, int edits,
                      SpanLog& spans, Outcome& out) {
  site::SiteOptions options;
  options.pool = &rt::default_pool();
  site::BuildCache cache;
  site::rebuild(stack.repo, cache, options);

  std::vector<double> fingerprint_us, load_ms, rebuild_ms, rendered, index_ms,
      router_ms, swap_us;
  // Its own marker space: the read phases' editor used `seed`.
  Editor editor(stack, seed + 1'000'003);
  for (int e = 0; e < edits; ++e) {
    editor.edit(out, &spans);
    // The edit is on disk and served; now time each layer of a reload of
    // the same content.
    const std::uint64_t t0 = now_ns();
    const auto fingerprint = server::content_fingerprint(stack.content_dir);
    const std::uint64_t t1 = now_ns();
    auto loaded = core::Repository::load_lenient(stack.content_dir);
    const std::uint64_t t2 = now_ns();
    out.check(fingerprint.has_value() && loaded.has_value() &&
                  !loaded.value().degraded(),
              "edited content did not reload cleanly");
    if (!loaded.has_value()) continue;
    const core::Repository& repo = loaded.value().repository;
    site::BuildStats stats;
    const site::Site built = site::rebuild(repo, cache, options, &stats);
    const std::uint64_t t3 = now_ns();
    auto index = search::SearchIndex::build(repo, &rt::default_pool());
    const std::uint64_t t4 = now_ns();
    server::Router router(built, repo, std::move(index));
    router.set_build_stats(stats);
    router.set_health(&stack.health);
    router.set_reload_metrics(&stack.reload_metrics);
    const std::uint64_t t5 = now_ns();
    stack.server->swap_router(std::move(router));
    const std::uint64_t t6 = now_ns();
    const auto root = spans.add("replay.reload", 0, t0, t6);
    spans.add("core.fingerprint", root, t0, t1);
    spans.add("core.load_lenient", root, t1, t2);
    spans.add("site.rebuild", root, t2, t3);
    spans.add("search.build", root, t3, t4);
    spans.add("server.router_build", root, t4, t5);
    spans.add("server.swap", root, t5, t6);
    fingerprint_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    load_ms.push_back(ms_between(t1, t2));
    rebuild_ms.push_back(ms_between(t2, t3));
    rendered.push_back(static_cast<double>(stats.pages_rendered));
    index_ms.push_back(ms_between(t3, t4));
    router_ms.push_back(ms_between(t4, t5));
    swap_us.push_back(static_cast<double>(t6 - t5) / 1e3);
  }
  std::vector<double> render_us;
  const auto& activities = stack.repo.activities();
  const std::size_t step = std::max<std::size_t>(1, activities.size() / 200);
  for (std::size_t i = 0; i < activities.size(); i += step) {
    const std::uint64_t t0 = now_ns();
    const std::string html = site::render_activity_page(activities[i]);
    const std::uint64_t t1 = now_ns();
    spans.add("markdown.render_activity_page", 0, t0, t1);
    out.check(!html.empty(), "empty activity page");
    render_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  out.add("core.fingerprint_us", median(fingerprint_us), "us");
  out.add("core.load_lenient_ms", median(load_ms), "ms");
  out.add("site.rebuild_ms", median(rebuild_ms), "ms");
  out.add("site.pages_rendered_per_edit", median(rendered), "count");
  out.add("search.build_ms", median(index_ms), "ms");
  out.add("server.router_build_ms", median(router_ms), "ms");
  out.add("server.swap_us", median(swap_us), "us");
  out.add("markdown.render_page_us", median(render_us), "us");
  out.add("reload.check_once_ms", median(editor.check_once_ms), "ms");
  out.add("reload.edit_visible_ms", median(editor.visible_ms), "ms");
}

/// The synthetic corpus as an author's content: a loaded activity's slug
/// is its slugified title, so titles are numbered to keep slugs (and the
/// files the editor rewrites) unique.
core::Repository authoring_corpus() {
  auto activities =
      search::corpus::synthetic_activities({kAuthorDocs, kCorpusSeed});
  for (std::size_t i = 0; i < activities.size(); ++i) {
    activities[i].title += " " + std::to_string(i);
    activities[i].slug = pdcu::slugify(activities[i].title);
  }
  return core::Repository(std::move(activities));
}

/// The built-in curation, exported under the work dir and served from disk
/// (the authoring probe of workloads that do not edit).
std::unique_ptr<Stack> builtin_on_disk(const RunConfig& config) {
  return serve_from_disk(core::Repository::builtin(),
                         config.work_dir / "builtin_content", kShards);
}

/// The traced run of a serving workload: an untraced and a traced read
/// phase of equal length (their difference is the tracing overhead), then
/// the per-layer passes. `authoring` is the stack the authoring layers edit.
void traced_serving(const RunConfig& config, Stack& stack, const Workload& w,
                    double phase_seconds, Stack& authoring, SpanLog& spans,
                    Outcome& out) {
  const Inputs inputs = inputs_for(stack.repo, w.terms, w.filters);
  std::unique_ptr<Editor> editor;
  if (w.edits) editor = std::make_unique<Editor>(stack, config.seed);
  const Phase plain = read_phase(stack, w, inputs, config.seed, phase_seconds,
                                 editor.get(), nullptr, nullptr, out);

  const net::NetMetrics& net = stack.server->net_metrics();
  const std::uint64_t accepts = net.accepted_total();
  const std::uint64_t writevs = net.writev_calls_total();
  const std::uint64_t partial = net.partial_writes_total();
  const std::uint64_t requests = net.requests_total();
  const auto before = stack.server->router();
  const std::uint64_t cache_hits = before->query_cache().hits();
  const std::uint64_t cache_misses = before->query_cache().misses();
  SearchSample searches;
  const Phase traced =
      read_phase(stack, w, inputs, config.seed + 7919, phase_seconds,
                 editor.get(), w.edits ? nullptr : &searches, &spans, out);
  const auto after = stack.server->router();
  const double served = static_cast<double>(net.requests_total() - requests);
  out.add("net.accepts_per_kreq",
          1000.0 * static_cast<double>(net.accepted_total() - accepts) /
              std::max(1.0, served),
          "1/kreq");
  out.add("net.writev_per_req",
          static_cast<double>(net.writev_calls_total() - writevs) /
              std::max(1.0, served),
          "count");
  out.add("net.partial_write_ratio",
          static_cast<double>(net.partial_writes_total() - partial) /
              std::max(1.0, static_cast<double>(net.writev_calls_total() -
                                                writevs)),
          "ratio");
  // A reload swaps in a router with a cold cache; count from zero then.
  const bool same = before == after;
  const double hits = static_cast<double>(
      after->query_cache().hits() - (same ? cache_hits : 0));
  const double misses = static_cast<double>(
      after->query_cache().misses() - (same ? cache_misses : 0));
  out.add("server.query_cache_hit_ratio", hits / std::max(1.0, hits + misses),
          "ratio");
  check_search_sample(searches, after->index(), stack.repo.index(), out);

  std::vector<double> late = lateness_us(traced.run);
  out.add("client.latency_p99_us", traced.stats.p99_us, "us");
  out.add("client.lateness_p99_us", percentile(late, 0.99), "us");
  out.add("client.lateness_max_us", percentile(late, 1.0), "us");
  out.add("client.samples", static_cast<double>(traced.stats.samples), "count");
  out.add("client.retries", static_cast<double>(traced.run.retries), "count");
  out.add("trace.overhead_p50_us", traced.stats.p50_us - plain.stats.p50_us,
          "us");
  out.add("trace.overhead_p99_us", traced.stats.p99_us - plain.stats.p99_us,
          "us");

  server_layers(stack, traced, spans, out);
  search_layers(after->index(), stack.repo.index(),
                distinct_queries(traced.schedule, 200), spans, out);
  out.add("site.build_ms", stack.site_ms, "ms");
  out.add("site.parse_ms",
          static_cast<double>(stack.build.parse_time.count()) / 1e3, "ms");
  out.add("site.render_ms",
          static_cast<double>(stack.build.render_time.count()) / 1e3, "ms");
  out.add("site.assemble_ms",
          static_cast<double>(stack.build.assemble_time.count()) / 1e3, "ms");
  authoring_layers(authoring, config.seed, w.edits ? 5 : 10, spans, out);
}

Outcome run_serving(const RunConfig& config, const Workload& w) {
  Outcome out;
  auto pin = std::make_unique<OneCpu>();
  std::unique_ptr<Stack> stack;
  const Timed setup = median_setup_s(
      [&] {
        stack.reset();
        if (!w.content_dir.empty()) std::filesystem::remove_all(w.content_dir);
      },
      [&] { stack = w.setup(); }, config.trace);

  if (config.trace) {
    SpanLog spans;
    std::unique_ptr<Stack> probe;
    Stack* authoring = stack.get();
    if (!w.edits) {
      probe = builtin_on_disk(config);
      authoring = probe.get();
    }
    traced_serving(config, *stack, w, config.seconds / 2.0, *authoring, spans,
                   out);
    pin.reset();  // the stencil probe's pool gets every CPU
    stencil_layers(256, 40, config.seed, out);
    out.add("trace.spans", static_cast<double>(spans.size()), "count");
    spans.write(config.work_dir / (config.workload + ".spans.jsonl"));
    return out;
  }

  const Inputs inputs = inputs_for(stack->repo, w.terms, w.filters);
  Cycles cycles;
  Timed throughput;
  if (w.edits) {
    Editor editor(*stack, config.seed);
    cycles = edit_cycles(*stack, w, inputs, config, editor, out);
    throughput = {1000.0 / median(cycles.visible_ms),
                  cycles.visible_ms.size()};
    out.uncorrected.push_back(
        {"throughput_per_s", 1000.0 / median(editor.visible_ms), "1/s"});
  } else {
    cycles = alternate(*stack, w.plan, w.probe, inputs, config, out);
    throughput = {cycles.capacity(), cycles.closed_replies};
    out.uncorrected.push_back({"throughput_per_s", mean(cycles.rate), "1/s"});
  }
  out.uncorrected.push_back({"latency_p50_us", mean(cycles.p50_us), "us"});
  out.uncorrected.push_back({"host_slowdown", mean(cycles.p50_slowdown), "x"});
  out.add("setup_s", setup.value, "s", setup.samples);
  out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  out.add("latency_p50_us", cycles.latency_us(), "us", cycles.requests);
  out.add("throughput_per_s", throughput.value, "1/s", throughput.samples);
  return out;
}

Workload browse_workload() {
  Workload w;
  w.plan = browse_plan();
  w.terms = kBrowseTerms;
  w.setup = [] { return serve(core::Repository::builtin(), kShards); };
  return w;
}

}  // namespace

Outcome run_browse(const RunConfig& config) {
  return run_serving(config, browse_workload());
}

Outcome run_search_corpus(const RunConfig& config) {
  Workload w;
  w.plan = search_corpus_plan();
  w.terms = search::corpus::vocabulary();
  w.filters = true;
  w.probe = Probe::kStream;
  w.setup = [] {
    return serve(
        search::corpus::synthetic_repository({kSearchCorpusDocs, kCorpusSeed}),
        kShards);
  };
  return run_serving(config, w);
}

Outcome run_author_reload(const RunConfig& config) {
  Workload w;
  w.plan = author_reload_plan();
  w.terms = search::corpus::vocabulary();
  w.edits = true;
  w.probe = Probe::kSpin;
  const auto dir = config.work_dir / "author_content";
  w.content_dir = dir;
  w.setup = [dir] {
    return serve_from_disk(authoring_corpus(), dir, kShards);
  };
  return run_serving(config, w);
}

void serving_layers_probe(const RunConfig& config, Outcome& out) {
  const Workload w = browse_workload();
  auto stack = w.setup();
  auto authoring = builtin_on_disk(config);
  SpanLog spans;
  traced_serving(config, *stack, w, 1.0, *authoring, spans, out);
  out.add("trace.spans", static_cast<double>(spans.size()), "count");
  spans.write(config.work_dir / (config.workload + ".spans.jsonl"));
}

}  // namespace perfbench
