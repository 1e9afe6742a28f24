// Integration tests: a real HttpServer on an ephemeral loopback port, real
// client sockets, raw request bytes on the wire. Covers the acceptance
// path: activity page + catalog over a socket, conditional GET 304,
// malformed-request 400 without a crash, keep-alive, and graceful stop.
#include "pdcu/server/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/core/repository.hpp"
#include "pdcu/obs/access_log.hpp"
#include "pdcu/obs/lint.hpp"
#include "pdcu/site/site.hpp"
#include "pdcu/support/strings.hpp"

namespace server = pdcu::server;
namespace core = pdcu::core;
namespace site = pdcu::site;
namespace strs = pdcu::strings;

namespace {

server::Router make_router() {
  const auto& repo = core::Repository::builtin();
  return server::Router(site::build_site(repo), repo);
}

/// Connects to 127.0.0.1:port; returns the fd or -1.
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

/// One-shot exchange: connect, send raw bytes, read until the server
/// closes (requests sent here use "Connection: close").
std::string http_exchange(std::uint16_t port, const std::string& wire) {
  const int fd = dial(port);
  if (fd < 0) return {};
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  std::string reply = read_to_eof(fd);
  ::close(fd);
  return reply;
}

std::string simple_get(std::uint16_t port, const std::string& target,
                       const std::string& extra_headers = {}) {
  return http_exchange(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                            extra_headers + "Connection: close\r\n\r\n");
}

/// Value of a response header (case-insensitive name), or "".
std::string header_value(const std::string& reply, const std::string& name) {
  const std::string lower = strs::to_lower(reply);
  const std::string needle = "\r\n" + strs::to_lower(name) + ": ";
  const auto at = lower.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  const auto end = reply.find("\r\n", start);
  return reply.substr(start, end - start);
}

std::string body_of(const std::string& reply) {
  const auto at = reply.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : reply.substr(at + 4);
}

/// A server running for the duration of one test.
struct ScopedServer {
  explicit ScopedServer(server::ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    instance = std::make_unique<server::HttpServer>(make_router(),
                                                    std::move(options));
    auto status = instance->start();
    EXPECT_TRUE(status.has_value())
        << (status ? "" : status.error().message);
  }
  std::uint16_t port() const { return instance->port(); }
  std::unique_ptr<server::HttpServer> instance;
};

/// Wire-level tests, parameterized on the connection engine. The reactor
/// is the only one; the suite and instance names are kept so the test ids
/// stay stable.
class BothBackends : public ::testing::TestWithParam<server::Backend> {
 protected:
  server::ServerOptions opts() const {
    server::ServerOptions options;
    options.backend = GetParam();
    return options;
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    HttpServer, BothBackends,
    ::testing::Values(server::Backend::kReactor),
    [](const ::testing::TestParamInfo<server::Backend>&) {
      return "reactor";
    });

TEST_P(BothBackends, ServesAnActivityPageOverARealSocket) {
  ScopedServer srv(opts());
  const std::string reply =
      simple_get(srv.port(), "/activities/findsmallestcard/");
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 200 OK\r\n")) << reply;
  EXPECT_EQ(header_value(reply, "Content-Type"), "text/html; charset=utf-8");
  EXPECT_TRUE(strs::contains(reply, "<h1>FindSmallestCard</h1>"));
  // Content-Length matches the body actually delivered.
  EXPECT_EQ(std::to_string(body_of(reply).size()),
            header_value(reply, "Content-Length"));
}

TEST_P(BothBackends, ServesTheCatalogAndHealthz) {
  ScopedServer srv(opts());
  const std::string catalog = simple_get(srv.port(), "/api/catalog.json");
  EXPECT_TRUE(strs::starts_with(catalog, "HTTP/1.1 200 OK\r\n"));
  EXPECT_EQ(header_value(catalog, "Content-Type"),
            "application/json; charset=utf-8");
  EXPECT_TRUE(strs::contains(body_of(catalog), "findsmallestcard"));

  const std::string health = simple_get(srv.port(), "/healthz");
  EXPECT_TRUE(strs::starts_with(health, "HTTP/1.1 200 OK\r\n"));
  EXPECT_EQ(body_of(health), "ok\n");
}

TEST_P(BothBackends, ConditionalGetRevalidatesWith304) {
  ScopedServer srv(opts());
  const std::string first = simple_get(srv.port(), "/");
  const std::string etag = header_value(first, "ETag");
  ASSERT_FALSE(etag.empty());

  const std::string second =
      simple_get(srv.port(), "/", "If-None-Match: " + etag + "\r\n");
  EXPECT_TRUE(strs::starts_with(second, "HTTP/1.1 304 Not Modified\r\n"))
      << second;
  EXPECT_TRUE(body_of(second).empty());
  EXPECT_EQ(header_value(second, "ETag"), etag);
}

TEST_P(BothBackends, MalformedRequestGets400AndServerSurvives) {
  ScopedServer srv(opts());
  const std::string reply = http_exchange(srv.port(), "GARBAGE\r\n\r\n");
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 400 Bad Request\r\n"))
      << reply;
  // The server is still healthy afterwards.
  EXPECT_TRUE(strs::starts_with(simple_get(srv.port(), "/healthz"),
                                "HTTP/1.1 200 OK\r\n"));
  EXPECT_EQ(srv.instance->metrics().requests_by_class(4), 1u);
}

TEST_P(BothBackends, OversizedHeadGets431) {
  server::ServerOptions options = opts();
  options.max_request_bytes = 512;
  ScopedServer srv(options);
  const std::string reply = http_exchange(
      srv.port(), "GET / HTTP/1.1\r\nX-Pad: " + std::string(2048, 'x') +
                      "\r\n\r\n");
  EXPECT_TRUE(strs::starts_with(
      reply, "HTTP/1.1 431 Request Header Fields Too Large\r\n"))
      << reply;
}

TEST_P(BothBackends, UnknownPathGets404AndWrongMethodGets405) {
  ScopedServer srv(opts());
  EXPECT_TRUE(strs::starts_with(simple_get(srv.port(), "/missing/"),
                                "HTTP/1.1 404 Not Found\r\n"));
  const std::string reply = http_exchange(
      srv.port(), "DELETE / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 405 Method Not Allowed\r\n"));
  EXPECT_EQ(header_value(reply, "Allow"), "GET, HEAD");
}

TEST_P(BothBackends, HeadReturnsHeadersOnly) {
  ScopedServer srv(opts());
  const std::string reply = http_exchange(
      srv.port(), "HEAD / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 200 OK\r\n"));
  EXPECT_NE(header_value(reply, "Content-Length"), "0");
  EXPECT_TRUE(body_of(reply).empty());
}

TEST_P(BothBackends, KeepAliveServesTwoRequestsOnOneConnection) {
  ScopedServer srv(opts());
  const int fd = dial(srv.port());
  ASSERT_GE(fd, 0);
  const std::string first = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string second =
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  ::send(fd, first.data(), first.size(), MSG_NOSIGNAL);
  ::send(fd, second.data(), second.size(), MSG_NOSIGNAL);
  const std::string replies = read_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(header_value(replies, "Connection"), "keep-alive");
  // Two full responses arrived back-to-back.
  std::size_t count = 0;
  for (std::size_t at = replies.find("HTTP/1.1 200 OK");
       at != std::string::npos;
       at = replies.find("HTTP/1.1 200 OK", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST_P(BothBackends, MetricsEndpointCountsTraffic) {
  ScopedServer srv(opts());
  simple_get(srv.port(), "/");
  simple_get(srv.port(), "/missing/");
  const std::string reply = simple_get(srv.port(), "/metrics");
  const std::string body = body_of(reply);
  EXPECT_TRUE(strs::contains(body, "pdcu_requests_total 2"));
  EXPECT_TRUE(
      strs::contains(body, "pdcu_requests_by_class_total{class=\"2xx\"} 1"));
  EXPECT_TRUE(
      strs::contains(body, "pdcu_requests_by_class_total{class=\"4xx\"} 1"));
  // Both requests were page-route traffic (the 404 is a page miss), and
  // each route's latency histogram is exposed with cumulative buckets.
  EXPECT_TRUE(strs::contains(
      body, "pdcu_requests_by_route_total{route=\"page\",class=\"2xx\"} 1"));
  EXPECT_TRUE(strs::contains(
      body, "pdcu_requests_by_route_total{route=\"page\",class=\"4xx\"} 1"));
  EXPECT_TRUE(strs::contains(
      body, "pdcu_request_latency_us_bucket{route=\"page\",le=\"+Inf\"} 2"));
  EXPECT_TRUE(
      strs::contains(body, "pdcu_request_latency_us_count{route=\"page\"} 2"));
}

TEST_P(BothBackends, LiveMetricsScrapeIsLintClean) {
  ScopedServer srv(opts());
  // Touch every route class so all the per-route series have samples.
  simple_get(srv.port(), "/");
  simple_get(srv.port(), "/api/catalog.json");
  simple_get(srv.port(), "/api/activities/findsmallestcard.json");
  simple_get(srv.port(), "/api/search?q=parallel");
  simple_get(srv.port(), "/api/search?q=x&limit=10abc");
  simple_get(srv.port(), "/healthz");
  simple_get(srv.port(), "/no/such/page");
  const std::string reply = simple_get(srv.port(), "/metrics");
  EXPECT_EQ(header_value(reply, "Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const auto problems = pdcu::obs::lint_exposition(body_of(reply));
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");
}

TEST_P(BothBackends, AccessLogRecordsOneJsonLinePerRequest) {
  const std::string path =
      testing::TempDir() + "pdcu_access_log_test.jsonl";
  std::remove(path.c_str());
  {
    pdcu::obs::AccessLog log(path);
    ASSERT_TRUE(log.ok());
    server::ServerOptions options = opts();
    options.access_log = &log;
    ScopedServer srv(options);
    simple_get(srv.port(), "/");
    simple_get(srv.port(), "/api/search?q=parallel");
    simple_get(srv.port(), "/no/such/page");
    srv.instance->stop();
    log.flush();
    EXPECT_EQ(log.written(), 3u);
    EXPECT_EQ(log.dropped(), 0u);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  const auto lines = strs::split(contents, '\n');
  std::size_t entries = 0;
  bool saw_search = false;
  for (const auto& line : lines) {
    if (line.empty()) continue;
    ++entries;
    EXPECT_TRUE(strs::starts_with(line, "{\"ts\":\"")) << line;
    EXPECT_TRUE(strs::contains(line, "\"method\":\"GET\"")) << line;
    EXPECT_TRUE(strs::contains(line, "\"latency_us\":")) << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (strs::contains(line, "\"route\":\"search\"")) {
      saw_search = true;
      EXPECT_TRUE(
          strs::contains(line, "\"path\":\"/api/search?q=parallel\""))
          << line;
      EXPECT_TRUE(strs::contains(line, "\"status\":200")) << line;
    }
  }
  EXPECT_EQ(entries, 3u);
  EXPECT_TRUE(saw_search);
}

TEST_P(BothBackends, SlowClientTimesOutWith408) {
  server::ServerOptions options = opts();
  options.read_timeout = std::chrono::milliseconds(150);
  ScopedServer srv(options);
  const int fd = dial(srv.port());
  ASSERT_GE(fd, 0);
  // Half a request, then silence.
  const std::string partial = "GET / HTTP/1.1\r\nHos";
  ::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
  const std::string reply = read_to_eof(fd);
  ::close(fd);
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 408 Request Timeout\r\n"))
      << reply;
}

TEST(HttpServer, EphemeralPortIsReportedAndStopIsGraceful) {
  server::ServerOptions options;
  options.port = 0;
  server::HttpServer srv(make_router(), options);
  ASSERT_TRUE(srv.start().has_value());
  EXPECT_TRUE(srv.running());
  EXPECT_GT(srv.port(), 0);
  simple_get(srv.port(), "/healthz");
  srv.stop();
  EXPECT_FALSE(srv.running());
  EXPECT_GE(srv.metrics().requests_total(), 1u);
  srv.stop();  // idempotent
}

TEST(HttpServer, StartTwiceFailsCleanly) {
  ScopedServer srv;
  auto status = srv.instance->start();
  EXPECT_FALSE(status.has_value());
  EXPECT_EQ(status.error().code, "server.start");
}

TEST(HttpServer, TraceLogRecordsLifecycle) {
  pdcu::rt::TraceLog trace;
  server::ServerOptions options;
  options.port = 0;
  server::HttpServer srv(make_router(), options, &trace);
  ASSERT_TRUE(srv.start().has_value());
  simple_get(srv.port(), "/");
  srv.stop();
  const std::string script = trace.render_script();
  EXPECT_TRUE(strs::contains(script, "server: listening on 127.0.0.1:"));
  EXPECT_TRUE(strs::contains(script, "server: stopped after 1 requests"));
}

TEST_P(BothBackends, ConnectionLimitAnswers503WithRetryAfter) {
  server::ServerOptions options = opts();
  options.max_connections = 0;  // every connection is over the limit
  ScopedServer srv(options);
  const std::string reply = simple_get(srv.port(), "/healthz");
  EXPECT_TRUE(strs::starts_with(reply, "HTTP/1.1 503 Service Unavailable\r\n"))
      << reply;
  EXPECT_EQ(header_value(reply, "Retry-After"), "1");
  EXPECT_EQ(header_value(reply, "Connection"), "close");
  EXPECT_EQ(body_of(reply), "503 Service Unavailable\n");
}

TEST_P(BothBackends, SwapRouterChangesWhatSubsequentRequestsSee) {
  ScopedServer srv(opts());
  EXPECT_EQ(body_of(simple_get(srv.port(), "/healthz")), "ok\n");

  // Swap in a router wired with a HealthTracker; the same URL now serves
  // the structured health document, proving requests read the snapshot
  // published by swap_router rather than a router captured at start().
  server::HealthTracker health;
  health.set_content(37, {"findsmallestcard"});
  server::Router replacement = make_router();
  replacement.set_health(&health);
  srv.instance->swap_router(std::move(replacement));

  const std::string after = simple_get(srv.port(), "/healthz");
  EXPECT_TRUE(strs::starts_with(after, "HTTP/1.1 200 OK\r\n"));
  EXPECT_TRUE(strs::contains(body_of(after), "\"status\":\"degraded\""));
  EXPECT_TRUE(strs::contains(body_of(after), "findsmallestcard"));
}

TEST(HttpServer, TwoEphemeralServersRunConcurrently) {
  // Flake-free CI and loadgen self-tests rely on --port 0 never
  // colliding: two servers started concurrently must get distinct kernel-
  // assigned ports and both must serve.
  ScopedServer first;
  ScopedServer second;
  ASSERT_NE(first.port(), 0);
  ASSERT_NE(second.port(), 0);
  EXPECT_NE(first.port(), second.port());

  // Interleaved requests: both servers answer while the other is up.
  EXPECT_EQ(body_of(simple_get(first.port(), "/healthz")), "ok\n");
  EXPECT_EQ(body_of(simple_get(second.port(), "/healthz")), "ok\n");
  const std::string from_first =
      simple_get(first.port(), "/api/catalog.json");
  const std::string from_second =
      simple_get(second.port(), "/api/catalog.json");
  EXPECT_TRUE(strs::starts_with(from_first, "HTTP/1.1 200 OK\r\n"));
  EXPECT_EQ(body_of(from_first), body_of(from_second));
}

TEST(HttpServer, SwapRouterWhileReadersLoadSnapshots) {
  // Readers keep loading and using the current snapshot while the main
  // thread swaps routers in repeatedly. Each swap releases the replaced
  // router outside the snapshot lock; under TSan and ASan this catches a
  // race on the pointer or a snapshot freed while a reader still holds it.
  const auto& repo = core::Repository::builtin();
  const site::Site built = site::build_site(repo);
  server::HttpServer http(server::Router(built, repo));
  server::Request request;
  request.method = "GET";
  request.target = "/activities/findsmallestcard/";
  request.version = "HTTP/1.1";

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> loads{0};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const server::Router> snapshot = http.router();
        const auto hit = snapshot->try_fast(request);
        if (!hit.has_value() || hit->status != 200 || hit->body.empty()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        loads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    http.swap_router(server::Router(built, repo));
  }
  // Let the readers see the last snapshot too before stopping them.
  const std::uint64_t seen = loads.load();
  while (loads.load() < seen + 3) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(misses.load(), 0u);
}
