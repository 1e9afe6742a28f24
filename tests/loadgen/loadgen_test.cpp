// End-to-end load-generator tests: a real smoke run against an embedded
// HttpServer, the BENCH JSON rendering, the one-shot catalog fetch, and —
// the test this subsystem
// exists for — proof that the harness is coordinated-omission-safe: a
// server that stalls 200 ms per response must show that stall (and the
// queueing it causes) in the recorded percentiles, because latency is
// charged from each request's *intended* send time, not from whenever the
// previous response finally freed the connection.
#include "pdcu/loadgen/loadgen.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/loadgen/smoke.hpp"

namespace loadgen = pdcu::loadgen;

namespace {

/// A minimal HTTP server that sleeps `stall` before every response — the
/// pathological target a closed-loop tool would under-report. Handles
/// each connection on its own thread and answers every request with
/// `response` (by default a Content-Length framed keep-alive 200, exactly
/// what the loadgen client expects).
class StallServer {
 public:
  explicit StallServer(std::chrono::milliseconds stall,
                       std::string response =
                           "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                           "Connection: keep-alive\r\n\r\nok\n")
      : stall_(stall), response_(std::move(response)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
           sizeof address);
    ::listen(listen_fd_, 16);
    socklen_t length = sizeof address;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                  &length);
    port_ = ntohs(address.sin_port);
    accept_thread_ = std::thread([this] { accept_all(); });
  }

  ~StallServer() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    for (auto& worker : workers_) worker.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  void accept_all() {
    while (!stopping_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      workers_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    std::string buffer;
    char chunk[4096];
    while (!stopping_.load()) {
      // Read one request head.
      while (buffer.find("\r\n\r\n") == std::string::npos) {
        const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
        if (got <= 0) {
          ::close(fd);
          return;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
      }
      buffer.erase(0, buffer.find("\r\n\r\n") + 4);
      std::this_thread::sleep_for(stall_);
      ::send(fd, response_.data(), response_.size(), MSG_NOSIGNAL);
      if (response_.find("Connection: close") != std::string::npos) break;
    }
    ::close(fd);
  }

  std::chrono::milliseconds stall_;
  std::string response_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// The acceptance test of the whole design: 10 requests scheduled 20 ms
/// apart at a server that takes 200 ms each on one connection. A
/// closed-loop tool would report ~200 ms per request; an open-loop one
/// must charge the pile-up — request i leaves ~i*180 ms late — so the
/// recorded p99 has to be far above the stall itself.
TEST(Loadgen, CoordinatedOmissionIsCharged) {
  constexpr auto kStall = std::chrono::milliseconds(200);
  StallServer server(kStall);

  loadgen::Options options;
  options.port = server.port();
  options.connections = 1;
  options.timeout = std::chrono::milliseconds(10000);
  options.schedule.rate = 50.0;
  options.schedule.duration_s = 0.2;  // 10 requests, 20 ms apart
  options.schedule.seed = 42;
  options.schedule.keep_alive_ratio = 1.0;
  options.schedule.mix = {{loadgen::Route::kPage, 1.0}};

  const auto schedule =
      loadgen::build_schedule(options.schedule, {"stall"});
  ASSERT_EQ(schedule.size(), 10u);
  const auto result = loadgen::run(options, schedule);

  EXPECT_EQ(result.completed, 10u);
  EXPECT_EQ(result.status_2xx, 10u);
  EXPECT_EQ(result.errors_total(), 0u);
  EXPECT_EQ(result.peak_connections, 1u);
  // Every response waited at least one full stall.
  EXPECT_GE(result.latency_us.quantile(0.50),
            static_cast<std::uint64_t>(200000));
  // The tail carries the queueing: the last request was scheduled at
  // 180 ms but could not start until ~9 stalls had drained. Well over a
  // single stall even with generous scheduling slop.
  EXPECT_GE(result.latency_us.quantile(0.99),
            static_cast<std::uint64_t>(400000));
  EXPECT_GE(result.max_latency_us, static_cast<std::uint64_t>(400000));
}

TEST(Loadgen, SmokeRunCompletesCleanlyAgainstTheRealServer) {
  loadgen::SmokeOptions smoke;
  smoke.rate = 100.0;
  smoke.duration_s = 0.5;
  smoke.connections = 2;
  loadgen::Options used;
  const auto result = loadgen::run_smoke(smoke, &used);
  ASSERT_TRUE(result.has_value());

  const auto& r = result.value();
  EXPECT_EQ(r.scheduled, 50u);
  EXPECT_EQ(r.completed, r.scheduled);
  EXPECT_EQ(r.errors_total(), 0u);
  EXPECT_EQ(r.status_4xx, 0u);
  EXPECT_EQ(r.status_5xx, 0u);
  EXPECT_EQ(r.status_2xx + r.status_3xx, r.completed);
  EXPECT_EQ(r.latency_us.count, r.completed);
  EXPECT_GT(r.achieved_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.target_rate, 100.0);
}

TEST(Loadgen, ResultJsonSpeaksTheBenchSchemaWithTheGateKeys) {
  loadgen::SmokeOptions smoke;
  smoke.rate = 100.0;
  smoke.duration_s = 0.3;
  smoke.connections = 1;
  loadgen::Options used;
  const auto result = loadgen::run_smoke(smoke, &used);
  ASSERT_TRUE(result.has_value());

  const std::string json = loadgen::render_result_json(result.value(), used);
  auto parsed = loadgen::parse_bench_json(json);
  ASSERT_TRUE(parsed.has_value());
  const auto& doc = parsed.value();
  EXPECT_EQ(doc.schema_version(), loadgen::kBenchSchemaVersion);
  EXPECT_EQ(doc.bench_name(), "serve");
  // The keys the bench_gate rules and the error hard-fail key on.
  for (const char* key :
       {"latency_us.p50", "latency_us.p99", "achieved_rate",
        "errors.connect", "errors.send", "errors.read", "errors.timeout",
        "requests.scheduled", "requests.completed"}) {
    EXPECT_TRUE(doc.has_number(key)) << key;
  }
  EXPECT_EQ(doc.text("config.mix"),
            "page=6:catalog=1:activity=2:search=1");
  EXPECT_DOUBLE_EQ(doc.number("requests.scheduled"), 30.0);
}

TEST(Loadgen, KilledServerMidRunIsChargedAsErrorsNotSilence) {
  // The accounting identity under fire: a server that dies mid-schedule
  // must not leave silent gaps. Every scheduled request that could not
  // complete — reset mid-body, connection refused on reconnect — has to
  // land in an error bucket, so completed + errors == scheduled.
  auto server = std::make_unique<StallServer>(std::chrono::milliseconds(0));

  loadgen::Options options;
  options.port = server->port();
  options.connections = 2;
  options.timeout = std::chrono::milliseconds(500);
  options.schedule.rate = 100.0;
  options.schedule.duration_s = 1.0;  // 100 requests over one second
  options.schedule.seed = 7;
  options.schedule.keep_alive_ratio = 1.0;
  options.schedule.mix = {{loadgen::Route::kPage, 1.0}};
  const auto schedule =
      loadgen::build_schedule(options.schedule, {"stall"});
  ASSERT_EQ(schedule.size(), 100u);

  std::thread assassin([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.reset();  // listener gone, live connections torn down
  });
  const auto result = loadgen::run(options, schedule);
  assassin.join();

  EXPECT_GT(result.completed, 0u) << "some requests landed pre-kill";
  EXPECT_GT(result.errors_total(), 0u)
      << "the kill must surface as errors, not vanish from the ledger";
  EXPECT_TRUE(result.fully_accounted())
      << "completed=" << result.completed
      << " errors=" << result.errors_total()
      << " scheduled=" << result.scheduled;
}

TEST(Loadgen, UnreachableServerFailsWithAnError) {
  loadgen::Options options;
  options.port = 1;  // nothing listens on port 1
  options.timeout = std::chrono::milliseconds(200);
  auto result = loadgen::run_against(options);
  EXPECT_FALSE(result.has_value());
}

// fetch_once's timeout bounds the whole exchange, not each read: a peer
// that sends one byte every 100 ms must not hold a 300 ms fetch open.
TEST(Loadgen, FetchOnceTricklingPeerHitsItsTimeout) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address);
  ::listen(listener, 4);
  socklen_t length = sizeof address;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length);

  std::atomic<bool> done{false};
  std::thread trickler([&] {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) return;
    const std::string head = "HTTP/1.1 200 OK\r\nX-Slow: " +
                             std::string(64, 'a');
    for (std::size_t i = 0; i < head.size() && !done.load(); ++i) {
      if (::send(client, &head[i], 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::close(client);
  });

  const auto start = std::chrono::steady_clock::now();
  const auto reply = loadgen::fetch_once("127.0.0.1", ntohs(address.sin_port),
                                         "/", std::chrono::milliseconds(300));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done.store(true);
  ::shutdown(listener, SHUT_RDWR);
  trickler.join();
  ::close(listener);

  EXPECT_FALSE(reply.has_value());
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
}

TEST(Loadgen, CatalogErrorFailsWithItsStatus) {
  // A server that answers the catalog with an error must fail the run
  // with that status, not parse the error page and report "no slugs".
  StallServer server(std::chrono::milliseconds(0),
                     "HTTP/1.1 503 Service Unavailable\r\n"
                     "Content-Length: 4\r\nConnection: close\r\n\r\nbusy");
  auto slugs = loadgen::fetch_catalog_slugs("127.0.0.1", server.port(),
                                            std::chrono::milliseconds(2000));
  ASSERT_FALSE(slugs.has_value());
  EXPECT_NE(slugs.error().message.find("503"), std::string::npos)
      << slugs.error().message;
  EXPECT_EQ(slugs.error().message.find("no slugs"), std::string::npos);
}

TEST(Loadgen, CatalogWithAMalformedStatusLineIsAnError) {
  StallServer server(std::chrono::milliseconds(0),
                     "HTTP/1.1 2xx OK\r\nContent-Length: 2\r\n"
                     "Connection: close\r\n\r\n{}");
  auto slugs = loadgen::fetch_catalog_slugs("127.0.0.1", server.port(),
                                            std::chrono::milliseconds(2000));
  ASSERT_FALSE(slugs.has_value());
  EXPECT_NE(slugs.error().message.find("malformed"), std::string::npos)
      << slugs.error().message;
}

TEST(Loadgen, EpollClientSmokesCleanlyAgainstTheReactorBackend) {
  loadgen::SmokeOptions smoke;
  smoke.rate = 200.0;
  smoke.duration_s = 0.5;
  smoke.connections = 16;
  loadgen::Options used;
  const auto result = loadgen::run_smoke(smoke, &used);
  ASSERT_TRUE(result.has_value())
      << (result ? "" : result.error().message);

  const auto& r = result.value();
  EXPECT_EQ(r.completed, r.scheduled);
  EXPECT_EQ(r.errors_total(), 0u);
  EXPECT_EQ(r.status_4xx, 0u);
  EXPECT_EQ(r.status_5xx, 0u);
  EXPECT_EQ(r.peak_connections, 16u);

  // peak_connections rides along in the BENCH document.
  const std::string json = loadgen::render_result_json(r, used);
  auto parsed = loadgen::parse_bench_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed.value().number("requests.peak_connections"),
                   16.0);
}

}  // namespace
