// Serving-path microbenchmarks: in-process request throughput through the
// router and page cache (no sockets), conditional-GET revalidation, and
// end-to-end loopback requests/sec against a live HttpServer.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>

#include "bench_json.hpp"
#include "pdcu/core/repository.hpp"
#include "pdcu/obs/histogram.hpp"
#include "pdcu/server/server.hpp"
#include "pdcu/site/site.hpp"

namespace {

const pdcu::server::Router& router() {
  static const pdcu::server::Router kRouter = [] {
    const auto& repo = pdcu::core::Repository::builtin();
    return pdcu::server::Router(pdcu::site::build_site(repo), repo);
  }();
  return kRouter;
}

pdcu::server::Request get_request(std::string target) {
  pdcu::server::Request request;
  request.method = "GET";
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  return request;
}

void BM_CacheLookup(benchmark::State& state) {
  const auto& cache = router().cache();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find("/activities/findsmallestcard/"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void BM_RouterDispatch(benchmark::State& state) {
  const auto request = get_request("/activities/findsmallestcard/");
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto response = router().handle(request);
    bytes = response.body.size();
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RouterDispatch);

void BM_RouterConditionalGet(benchmark::State& state) {
  auto request = get_request("/activities/findsmallestcard/");
  const auto fresh = router().handle(request);
  request.headers.emplace_back("if-none-match",
                               *fresh.header("etag"));
  for (auto _ : state) {
    auto response = router().handle(request);  // 304, no body copy
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterConditionalGet);

void BM_SerializeResponse(benchmark::State& state) {
  const auto response = router().handle(get_request("/"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdcu::server::serialize(response));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeResponse);

/// Full loopback round trip: connect, one GET with Connection: close, read
/// the response to EOF. Dominated by syscalls, which is the point.
void BM_LoopbackRoundTrip(benchmark::State& state) {
  const auto& repo = pdcu::core::Repository::builtin();
  pdcu::server::ServerOptions options;
  options.port = 0;
  pdcu::server::HttpServer server(
      pdcu::server::Router(pdcu::site::build_site(repo), repo), options);
  if (!server.start()) {
    state.SkipWithError("server failed to start");
    return;
  }

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";

  for (auto _ : state) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                            sizeof address) != 0) {
      if (fd >= 0) ::close(fd);
      state.SkipWithError("connect failed");
      break;
    }
    ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    char chunk[4096];
    while (::recv(fd, chunk, sizeof chunk, 0) > 0) {
    }
    ::close(fd);
  }
  state.SetItemsProcessed(state.iterations());
  server.stop();
}
BENCHMARK(BM_LoopbackRoundTrip)->Unit(benchmark::kMicrosecond);

/// The in-process serving-path trajectory line ("serve_micro", distinct
/// from the socket-level "serve" document the loadgen emits): router
/// dispatch latency without any network, and loopback round-trip
/// latency/throughput over real cold connections. Same BENCH schema as
/// every other trajectory file.
void print_json_summary() {
  using Clock = std::chrono::steady_clock;

  // Router dispatch, no sockets.
  pdcu::obs::Histogram dispatch_us;
  const auto request = get_request("/activities/findsmallestcard/");
  constexpr int kDispatches = 5000;
  for (int i = 0; i < kDispatches; ++i) {
    const auto start = Clock::now();
    auto response = router().handle(request);
    benchmark::DoNotOptimize(response);
    dispatch_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count()));
  }

  // Loopback round trips against a live server, one cold connection each.
  const auto& repo = pdcu::core::Repository::builtin();
  pdcu::server::ServerOptions options;
  options.port = 0;
  pdcu::server::HttpServer server(
      pdcu::server::Router(pdcu::site::build_site(repo), repo), options);
  if (!server.start()) {
    std::fprintf(stderr, "bench_serve: server failed to start\n");
    return;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";
  pdcu::obs::Histogram roundtrip_us;
  constexpr int kRoundTrips = 300;
  int completed = 0;
  const auto sweep_start = Clock::now();
  for (int i = 0; i < kRoundTrips; ++i) {
    const auto start = Clock::now();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                            sizeof address) != 0) {
      if (fd >= 0) ::close(fd);
      continue;
    }
    ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    char chunk[4096];
    while (::recv(fd, chunk, sizeof chunk, 0) > 0) {
    }
    ::close(fd);
    ++completed;
    roundtrip_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count()));
  }
  const double sweep_s =
      std::chrono::duration<double>(Clock::now() - sweep_start).count();
  server.stop();

  const auto dispatch = dispatch_us.snapshot();
  const auto roundtrip = roundtrip_us.snapshot();
  pdcu::loadgen::BenchWriter writer("serve_micro", "bench_serve");
  writer.integer("dispatches", dispatch.count);
  writer.open("dispatch_us");
  writer.integer("p50", dispatch.quantile(0.50));
  writer.integer("p99", dispatch.quantile(0.99));
  writer.number("mean", dispatch.mean());
  writer.close();
  writer.integer("roundtrips", roundtrip.count);
  writer.number("loopback_rps",
                sweep_s > 0.0 ? completed / sweep_s : 0.0);
  writer.open("roundtrip_us");
  writer.integer("p50", roundtrip.quantile(0.50));
  writer.integer("p99", roundtrip.quantile(0.99));
  writer.number("mean", roundtrip.mean());
  writer.close();
  pdcu::benchjson::write_summary(writer.finish());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_json_summary();
  return 0;
}
