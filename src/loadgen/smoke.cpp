#include "pdcu/loadgen/smoke.hpp"

#include <algorithm>
#include <string>

#include "pdcu/core/repository.hpp"
#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"

namespace pdcu::loadgen {

namespace {

server::ServerOptions make_server_options(const SmokeOptions& smoke) {
  server::ServerOptions server_options;
  server_options.port = 0;  // ephemeral; loadgen reads it back
  server_options.net_shards = std::max(1u, smoke.net_shards);
  if (smoke.max_connections > 0) {
    server_options.max_connections = smoke.max_connections;
  }
  return server_options;
}

server::HttpServer make_smoke_server(const SmokeOptions& smoke) {
  if (smoke.synthetic_docs > 0) {
    const auto repo = search::corpus::synthetic_repository(
        {smoke.synthetic_docs, smoke.corpus_seed});
    auto index = search::SearchIndex::build(repo);
    server::Router router(site::build_site(repo), repo, std::move(index));
    return server::HttpServer(std::move(router), make_server_options(smoke));
  }
  const auto& repo = core::Repository::builtin();
  auto index = search::SearchIndex::build(repo);
  server::Router router(site::build_site(repo), repo, std::move(index));
  return server::HttpServer(std::move(router), make_server_options(smoke));
}

}  // namespace

Expected<Result> run_smoke(const SmokeOptions& smoke, Options* used) {
  server::HttpServer server = make_smoke_server(smoke);
  if (auto status = server.start(); !status) {
    return status.error().context("smoke server failed to start");
  }

  Options options;
  options.host = "127.0.0.1";
  options.port = server.port();
  options.connections = smoke.connections;
  options.schedule.rate = smoke.rate;
  options.schedule.duration_s = smoke.duration_s;
  options.schedule.seed = smoke.seed;
  if (smoke.synthetic_docs > 0) {
    // Synthetic corpora exist to stress ranked search: switch to the
    // search-dominated mix and draw query terms from the generator's own
    // vocabulary so they hit real posting lists.
    options.schedule.mix = search_mix();
    options.schedule.search_terms =
        search::corpus::sample_query_terms(smoke.corpus_seed, 64);
  }
  if (used != nullptr) *used = options;

  auto result = run_against(options);
  server.stop();
  return result;
}

Expected<std::vector<SweepPoint>> run_sweep(const SweepOptions& sweep) {
  SmokeOptions smoke;
  smoke.net_shards = sweep.net_shards;
  // Let every client connection in: the sweep measures what the server
  // can serve, not how politely it sheds load.
  smoke.max_connections = sweep.connections * 2;
  server::HttpServer server = make_smoke_server(smoke);
  if (auto status = server.start(); !status) {
    return status.error().context("sweep server failed to start");
  }

  std::vector<SweepPoint> points;
  for (const double rate : sweep.rates) {
    Options options;
    options.host = "127.0.0.1";
    options.port = server.port();
    options.connections = sweep.connections;
    options.schedule.rate = rate;
    options.schedule.duration_s = sweep.duration_s;
    options.schedule.seed = sweep.seed;
    auto result = run_against(options);
    if (!result) {
      server.stop();
      return result.error().context("sweep point failed");
    }
    points.push_back(SweepPoint{rate, std::move(result).value()});
  }
  server.stop();
  return points;
}

std::string render_sweep_json(const std::vector<SweepPoint>& points,
                              const SweepOptions& sweep) {
  BenchWriter writer("sweep_serve", "loadgen");
  writer.number("duration_s", sweep.duration_s);
  writer.integer("connections", sweep.connections);
  writer.integer("seed", sweep.seed);
  writer.integer("net_shards", sweep.net_shards);
  writer.integer("points", points.size());

  // Saturation throughput = the best rate actually served anywhere in the
  // sweep. achieved_rate counts only completed requests, so an overloaded
  // point contributes what it really delivered, not what was offered.
  double best = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    best = std::max(best, point.result.achieved_rate);
    writer.open("reactor_" + std::to_string(i));
    writer.number("rate", point.rate);
    writer.number("achieved_rate", point.result.achieved_rate);
    writer.number("rps", point.result.achieved_rate);
    writer.integer("scheduled", point.result.scheduled);
    writer.integer("completed", point.result.completed);
    writer.integer("errors", point.result.errors_total());
    writer.integer("peak_connections", point.result.peak_connections);
    writer.integer("p50_us", point.result.latency_us.quantile(0.50));
    writer.integer("p99_us", point.result.latency_us.quantile(0.99));
    writer.integer("max_us", point.result.max_latency_us);
    writer.close();
  }

  writer.open("summary");
  writer.number("reactor_saturation_rps", best);
  writer.close();
  return writer.finish();
}

}  // namespace pdcu::loadgen
