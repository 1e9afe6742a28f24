#include "pdcu/loadgen/smoke.hpp"

#include <string>

#include "pdcu/core/repository.hpp"
#include "pdcu/search/corpus.hpp"
#include "pdcu/search/index.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"

namespace pdcu::loadgen {

namespace {

server::ServerOptions make_server_options() {
  server::ServerOptions server_options;
  server_options.port = 0;  // ephemeral; loadgen reads it back
  server_options.net_shards = kSmokeNetShards;
  return server_options;
}

server::HttpServer make_smoke_server(const SmokeOptions& smoke) {
  if (smoke.synthetic_docs > 0) {
    const auto repo = search::corpus::synthetic_repository(
        {smoke.synthetic_docs, smoke.corpus_seed});
    auto index = search::SearchIndex::build(repo);
    server::Router router(site::build_site(repo), repo, std::move(index));
    return server::HttpServer(std::move(router), make_server_options());
  }
  const auto& repo = core::Repository::builtin();
  auto index = search::SearchIndex::build(repo);
  server::Router router(site::build_site(repo), repo, std::move(index));
  return server::HttpServer(std::move(router), make_server_options());
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

}  // namespace pdcu::loadgen
