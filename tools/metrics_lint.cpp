// Prometheus exposition-format linter for the pdcu metrics endpoint — the
// in-tree equivalent of `promtool check metrics`, with no external
// dependency.
//
//   metrics_lint              self-check: serve the builtin site on an
//        ephemeral port with every /metrics source wired, exercise every
//        route (pages, catalog, activity, search, healthz, plus a 404 and a
//        bad query), scrape GET /metrics over a real socket, and lint the
//        scrape
//   metrics_lint <file>       lint a saved exposition file
//   metrics_lint -            lint stdin
//
// Exit 0 when the exposition is clean, 1 when the lint finds problems
// (each printed as "line N: ..."), 2 on usage or I/O errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/obs/lint.hpp"
#include "pdcu/obs/span.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/health.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"

namespace {

/// Reads a whole stream into a string.
std::string slurp(std::FILE* file) {
  std::string text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, n);
  }
  return text;
}

/// The body of GET `target` from 127.0.0.1:`port`, or an empty string on
/// any failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  auto reply = pdcu::loadgen::fetch_once("127.0.0.1", port, target,
                                         std::chrono::seconds(5));
  return reply ? reply.value().body : std::string();
}

/// Serves the builtin site on an ephemeral port with every /metrics source
/// wired the way `pdcu serve --watch` wires them (build stats, reload
/// counters, build spans), hits every route class so the per-route series
/// exist, and returns the /metrics scrape.
std::string self_scrape() {
  auto repo = pdcu::core::Repository::builtin();
  // The registry and reload counters outlive the server, which holds
  // pointers to them until stop().
  pdcu::obs::SpanRegistry spans;
  pdcu::server::ReloadMetrics reload_metrics;
  auto index = pdcu::search::SearchIndex::build(repo, nullptr, &spans);
  pdcu::site::SiteOptions site_options;
  site_options.spans = &spans;
  pdcu::site::BuildStats build_stats;
  const auto site = pdcu::site::build_site(repo, site_options, &build_stats);
  pdcu::server::Router router(site, repo, std::move(index));
  router.set_build_stats(build_stats);
  router.set_reload_metrics(&reload_metrics);
  router.set_spans(&spans);

  pdcu::server::ServerOptions options;
  options.port = 0;  // ephemeral
  pdcu::server::HttpServer server(std::move(router), options);
  if (auto status = server.start(); !status) {
    std::fprintf(stderr, "metrics_lint: %s\n",
                 status.error().message.c_str());
    return {};
  }
  const std::uint16_t port = server.port();
  // One request per route label, plus a 404 and an invalid search limit,
  // so the lint sees histogram series for every route and both status
  // classes alongside the final /metrics scrape itself.
  for (const char* target :
       {"/", "/api/catalog.json", "/api/search?q=parallel",
        "/api/search?q=x&limit=10abc", "/healthz", "/no/such/page"}) {
    http_get(port, target);
  }
  std::string scrape = http_get(port, "/metrics");
  server.stop();
  return scrape;
}

}  // namespace

int main(int argc, char** argv) {
  std::string exposition;
  if (argc <= 1) {
    exposition = self_scrape();
    if (exposition.empty()) {
      std::fprintf(stderr, "metrics_lint: empty /metrics scrape\n");
      return 2;
    }
  } else if (argc == 2 && std::strcmp(argv[1], "-") == 0) {
    exposition = slurp(stdin);
  } else if (argc == 2) {
    std::FILE* file = std::fopen(argv[1], "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "metrics_lint: cannot open '%s'\n", argv[1]);
      return 2;
    }
    exposition = slurp(file);
    std::fclose(file);
  } else {
    std::fprintf(stderr, "usage: metrics_lint [file|-]\n");
    return 2;
  }

  const std::vector<std::string> problems =
      pdcu::obs::lint_exposition(exposition);
  for (const auto& problem : problems) {
    std::printf("%s\n", problem.c_str());
  }
  if (problems.empty()) {
    std::printf("metrics_lint: OK (%zu lines)\n",
                static_cast<std::size_t>(std::count(exposition.begin(),
                                                   exposition.end(), '\n')));
    return 0;
  }
  std::printf("metrics_lint: %zu problem(s)\n", problems.size());
  return 1;
}
