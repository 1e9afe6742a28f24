// Unit and integration tests for pdcu::net — the sharded epoll reactor
// core. The TimerWheel and Connection state machine are driven
// deterministically (explicit clocks, socketpairs); ReactorServer tests
// use real TCP sockets on ephemeral loopback ports with a small
// line-protocol stub handler, proving the reactor is genuinely
// protocol-agnostic.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/net/connection.hpp"
#include "pdcu/net/handler.hpp"
#include "pdcu/net/metrics.hpp"
#include "pdcu/net/reactor.hpp"
#include "pdcu/net/socket.hpp"
#include "pdcu/net/timer_wheel.hpp"

namespace net = pdcu::net;

using namespace std::chrono_literals;

namespace {

// ---------------------------------------------------------------- stubs

/// A newline-delimited echo protocol: request = one line, response =
/// "echo:<line> keep\n" or "echo:<line> close\n" (close framing when the
/// reactor forces it). A line over 64 bytes is answered with an error
/// and close — the handler-level analogue of HTTP 431. "big" asks for a
/// half-megabyte body so tests can force partial writes.
struct EchoHandler : net::Handler {
  std::atomic<int> connection_errors{0};
  std::atomic<int> last_error_status{0};
  std::atomic<int> write_errors{0};

  net::Step on_data(std::string_view buffer, bool force_close,
                    net::WireResponse& out) override {
    const auto nl = buffer.find('\n');
    if (nl == std::string_view::npos) {
      if (buffer.size() > 64) {
        out.owned_head = "ERR line-too-long\n";
        out.head = out.owned_head;
        out.close = true;
        out.status = 431;
        return {net::StepStatus::kRespond, 0};
      }
      return {net::StepStatus::kNeedMore, 0};
    }
    const std::string line(buffer.substr(0, nl));
    out.owned_head = "echo:" + line;
    out.head = out.owned_head;
    out.tail = force_close ? std::string_view(" close\n")
                           : std::string_view(" keep\n");
    if (line == "big") {
      out.owned_body.assign(512 * 1024, 'B');
      out.owned_body.back() = '\n';
      out.body = out.owned_body;
    }
    out.close = force_close;
    out.status = 200;
    return {net::StepStatus::kRespond, nl + 1};
  }

  std::string timeout_response() const override { return "TIMEOUT\n"; }
  std::string overload_response() const override { return "BUSY\n"; }

  void on_connection_error(int status, std::size_t) override {
    connection_errors.fetch_add(1);
    last_error_status.store(status);
  }
  void on_write_error() override { write_errors.fetch_add(1); }
};

/// Two connected non-blocking UNIX sockets; [0] plays the server-side
/// connection fd, [1] the client.
struct Pair {
  int fds[2] = {-1, -1};
  Pair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds),
              0);
  }
  ~Pair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int server() const { return fds[0]; }
  int client() const { return fds[1]; }

  void client_send(std::string_view bytes) const {
    ASSERT_EQ(::send(client(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Drains whatever is currently readable on the client side.
  std::string client_drain() const {
    std::string out;
    char chunk[8192];
    ssize_t n;
    while ((n = ::recv(client(), chunk, sizeof chunk, 0)) > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }
};

// ----------------------------------------------------------- TimerWheel

using Clock = net::TimerWheel::Clock;

TEST(TimerWheel, ExpiresAtTheDeadlineNotBefore) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch);
  wheel.schedule(7, epoch + 250ms);
  EXPECT_TRUE(wheel.advance(epoch + 100ms).empty());
  const auto fired = wheel.advance(epoch + 300ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, RescheduleMovesTheDeadlineAndStaleEntryIsIgnored) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch);
  wheel.schedule(1, epoch + 100ms);
  wheel.schedule(1, epoch + 1000ms);  // move it out
  // The stale slot entry from the first schedule fires its slot here but
  // must not expire the id.
  EXPECT_TRUE(wheel.advance(epoch + 500ms).empty());
  EXPECT_EQ(wheel.size(), 1u);
  const auto fired = wheel.advance(epoch + 1100ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
}

TEST(TimerWheel, CancelForgets) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch);
  wheel.schedule(3, epoch + 100ms);
  wheel.cancel(3);
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_TRUE(wheel.advance(epoch + 200ms).empty());
}

TEST(TimerWheel, DeadlineBeyondOneRevolutionRefilesInsteadOfFiringEarly) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch, /*tick=*/100ms, /*slots=*/8);  // 800ms horizon
  wheel.schedule(9, epoch + 2000ms);  // 2.5 revolutions out
  // Crossing its slot early must refile, not fire.
  EXPECT_TRUE(wheel.advance(epoch + 900ms).empty());
  EXPECT_TRUE(wheel.advance(epoch + 1700ms).empty());
  const auto fired = wheel.advance(epoch + 2100ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
}

TEST(TimerWheel, NextDeadlineBoundsTheEpollWait) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch);
  EXPECT_EQ(wheel.next_deadline(), Clock::time_point::max());
  wheel.schedule(1, epoch + 700ms);
  wheel.schedule(2, epoch + 300ms);
  EXPECT_EQ(wheel.next_deadline(), epoch + 300ms);
  const auto fired = wheel.advance(epoch + 400ms);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(wheel.next_deadline(), epoch + 700ms);
}

TEST(TimerWheel, ManyIdsInOneSlotAllFire) {
  const Clock::time_point epoch = Clock::now();
  net::TimerWheel wheel(epoch);
  for (std::uint64_t id = 0; id < 100; ++id) {
    wheel.schedule(id, epoch + 150ms);
  }
  auto fired = wheel.advance(epoch + 200ms);
  EXPECT_EQ(fired.size(), 100u);
  EXPECT_EQ(wheel.size(), 0u);
}

// ----------------------------------------------------------- Connection

TEST(Connection, FragmentedRequestAssemblesAcrossReads) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  pair.client_send("hel");
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kKeep);
  EXPECT_EQ(conn.responses_done(), 0u);
  EXPECT_TRUE(pair.client_drain().empty());

  pair.client_send("lo\n");
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kKeep);
  EXPECT_EQ(conn.responses_done(), 1u);
  EXPECT_EQ(pair.client_drain(), "echo:hello keep\n");
}

TEST(Connection, PipelinedRequestsServeBackToBack) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  pair.client_send("a\nb\nc\n");
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kKeep);
  EXPECT_EQ(conn.responses_done(), 3u);
  EXPECT_EQ(pair.client_drain(), "echo:a keep\necho:b keep\necho:c keep\n");
  EXPECT_EQ(metrics.requests_total(), 3u);
}

TEST(Connection, BufferCapClosesARunawayConnection) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::ConnectionLimits limits;
  limits.max_buffer_bytes = 16;  // under the handler's own 64-byte limit
  net::Connection conn(pair.server(), handler, &metrics, limits);

  pair.client_send(std::string(32, 'x'));  // no newline, no framing
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kClose);
}

TEST(Connection, HandlerErrorResponseWithCloseFraming) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  pair.client_send(std::string(80, 'x'));  // over the handler's 64 bytes
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kClose);
  EXPECT_EQ(pair.client_drain(), "ERR line-too-long\n");
}

TEST(Connection, TimeoutMidRequestSendsTheCannedResponse) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  pair.client_send("unfinished");  // no newline: the request never ends
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kKeep);
  EXPECT_EQ(conn.on_timeout(), net::Connection::Event::kClose);
  EXPECT_EQ(pair.client_drain(), "TIMEOUT\n");
  EXPECT_EQ(metrics.read_timeouts_total(), 1u);
  EXPECT_EQ(handler.connection_errors.load(), 1);
}

TEST(Connection, IdleTimeoutClosesSilently) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  EXPECT_EQ(conn.on_timeout(), net::Connection::Event::kClose);
  EXPECT_TRUE(pair.client_drain().empty());
  EXPECT_EQ(metrics.idle_closes_total(), 1u);
  EXPECT_EQ(metrics.read_timeouts_total(), 0u);
}

TEST(Connection, RequestCapForcesCloseFramingOnTheLastResponse) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::ConnectionLimits limits;
  limits.max_requests = 2;
  net::Connection conn(pair.server(), handler, &metrics, limits);

  pair.client_send("a\nb\n");
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kClose);
  EXPECT_EQ(pair.client_drain(), "echo:a keep\necho:b close\n");
}

TEST(Connection, DrainingMakesEveryResponseCloseFramed) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  pair.client_send("bye\n");
  EXPECT_EQ(conn.on_readable(/*draining=*/true),
            net::Connection::Event::kClose);
  EXPECT_EQ(pair.client_drain(), "echo:bye close\n");
}

TEST(Connection, PartialWriteBackpressuresThenResumes) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  // A half-megabyte response cannot fit a socketpair buffer: the first
  // flush stalls, the connection flips to want_write, and on_writable
  // resumes from the recorded offset once the client drains.
  pair.client_send("big\n");
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kKeep);
  EXPECT_TRUE(conn.want_write());
  EXPECT_GE(metrics.partial_writes_total(), 1u);

  std::string received = pair.client_drain();
  int rounds = 0;
  while (conn.want_write() && rounds++ < 10000) {
    EXPECT_EQ(conn.on_writable(false), net::Connection::Event::kKeep);
    received += pair.client_drain();
  }
  EXPECT_FALSE(conn.want_write());
  EXPECT_EQ(conn.responses_done(), 1u);
  EXPECT_EQ(received.size(), std::string("echo:big keep\n").size() +
                                 512 * 1024);
}

TEST(Connection, PeerHalfCloseStillGetsBufferedRequestsServed) {
  EchoHandler handler;
  net::NetMetrics metrics;
  Pair pair;
  net::Connection conn(pair.server(), handler, &metrics, {});

  // The client writes a full request and immediately shuts its write
  // side (send-then-shutdown). The connection must serve the buffered
  // request (close-framed — there can be no next request) then close.
  pair.client_send("last\n");
  ::shutdown(pair.client(), SHUT_WR);
  EXPECT_EQ(conn.on_readable(false), net::Connection::Event::kClose);
  EXPECT_EQ(pair.client_drain(), "echo:last close\n");
}

// -------------------------------------------------------- ReactorServer

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
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

/// Blocking read of exactly one "...\n" reply.
std::string read_line(int fd) {
  std::string out;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    out += c;
    if (c == '\n') break;
  }
  return out;
}

TEST(ReactorServer, ServesTheStubProtocolOverRealTcp) {
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.metrics = &metrics;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());
  ASSERT_GT(server.port(), 0);

  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, "ping\n", 5, MSG_NOSIGNAL), 5);
  EXPECT_EQ(read_line(fd), "echo:ping keep\n");
  // Keep-alive: a second request on the same connection.
  ASSERT_EQ(::send(fd, "pong\n", 5, MSG_NOSIGNAL), 5);
  EXPECT_EQ(read_line(fd), "echo:pong keep\n");
  ::close(fd);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(metrics.requests_total(), 2u);
  EXPECT_EQ(metrics.accepted_total(), 1u);
}

TEST(ReactorServer, OverloadAnswersTheCannedResponseAndCloses) {
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.max_connections = 0;  // nothing is admitted
  options.metrics = &metrics;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());

  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(read_to_eof(fd), "BUSY\n");
  ::close(fd);
  server.stop();
  EXPECT_EQ(metrics.overload_total(), 1u);
  EXPECT_EQ(handler.last_error_status.load(), 503);
}

TEST(ReactorServer, TwoShardsSplitTheAcceptLoad) {
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.shards = 2;
  options.max_connections = 256;
  options.metrics = &metrics;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());

  // 64 sequential connections from distinct ephemeral source ports; the
  // kernel's SO_REUSEPORT hash spreads them across the two listeners.
  for (int i = 0; i < 64; ++i) {
    const int fd = dial(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "x\n", 2, MSG_NOSIGNAL), 2);
    EXPECT_EQ(read_line(fd), "echo:x keep\n");
    ::close(fd);
  }
  server.stop();

  const std::uint64_t shard0 = metrics.accepted_by_shard(0);
  const std::uint64_t shard1 = metrics.accepted_by_shard(1);
  EXPECT_EQ(shard0 + shard1, 64u);
  // With 64 independent 4-tuples, both shards statistically must see
  // traffic (P[all on one shard] = 2^-63).
  EXPECT_GT(shard0, 0u);
  EXPECT_GT(shard1, 0u);
}

TEST(ReactorServer, ReadTimeoutFiresOnTheWire) {
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.read_timeout = 150ms;
  options.metrics = &metrics;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());

  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, "stuck", 5, MSG_NOSIGNAL), 5);  // never finished
  EXPECT_EQ(read_to_eof(fd), "TIMEOUT\n");  // blocks until the wheel fires
  ::close(fd);
  server.stop();
  EXPECT_EQ(metrics.read_timeouts_total(), 1u);
}

TEST(ReactorServer, StopDrainsIdleConnectionsPromptly) {
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.drain_timeout = 200ms;
  options.metrics = &metrics;
  auto server = std::make_unique<net::ReactorServer>(options, handler);
  ASSERT_TRUE(server->start().has_value());

  // One served (now idle) connection and one with an unfinished request.
  const int idle_fd = dial(server->port());
  ASSERT_GE(idle_fd, 0);
  ASSERT_EQ(::send(idle_fd, "hi\n", 3, MSG_NOSIGNAL), 3);
  EXPECT_EQ(read_line(idle_fd), "echo:hi keep\n");
  const int stuck_fd = dial(server->port());
  ASSERT_GE(stuck_fd, 0);
  ASSERT_EQ(::send(stuck_fd, "par", 3, MSG_NOSIGNAL), 3);

  const auto before = std::chrono::steady_clock::now();
  server->stop();  // drains: idle dropped at once, stuck at drain_timeout
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_LT(elapsed, 2s);
  EXPECT_EQ(server->active_connections(), 0u);

  // Both sockets are closed from the server side.
  EXPECT_EQ(read_to_eof(idle_fd), "");
  read_to_eof(stuck_fd);  // whatever was in flight, then EOF
  ::close(idle_fd);
  ::close(stuck_fd);
}

TEST(ReactorServer, TimerWheelTimeoutStillFiresDuringGracefulDrain) {
  // Draining must not pause the timer wheel: a connection stuck
  // mid-request when stop() begins gets its read-timeout verdict — the
  // canned TIMEOUT response — rather than hanging until the drain
  // deadline force-closes it silently.
  EchoHandler handler;
  net::NetMetrics metrics;
  net::ReactorOptions options;
  options.read_timeout = 500ms;
  options.drain_timeout = 5000ms;  // far beyond the wheel's deadline
  options.metrics = &metrics;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());

  // Serve one full request first so the connection is established and
  // known non-idle machinery works, then leave a request half-sent and
  // give the shard a beat to buffer it — a conn whose partial bytes have
  // not been read yet still looks idle and would be dropped at once.
  const int stuck_fd = dial(server.port());
  ASSERT_GE(stuck_fd, 0);
  ASSERT_EQ(::send(stuck_fd, "hi\n", 3, MSG_NOSIGNAL), 3);
  EXPECT_EQ(read_line(stuck_fd), "echo:hi keep\n");
  ASSERT_EQ(::send(stuck_fd, "par", 3, MSG_NOSIGNAL), 3);  // never finished
  std::this_thread::sleep_for(100ms);

  const auto before = std::chrono::steady_clock::now();
  server.stop();  // drain begins with the request still unfinished
  const auto elapsed = std::chrono::steady_clock::now() - before;

  // The wheel, not the drain deadline, ended the connection: stop()
  // returned as soon as the 150 ms timeout fired, and the client saw the
  // timeout response instead of a bare EOF.
  EXPECT_LT(elapsed, 2s);
  EXPECT_EQ(read_to_eof(stuck_fd), "TIMEOUT\n");
  EXPECT_EQ(metrics.read_timeouts_total(), 1u);
  ::close(stuck_fd);
}

TEST(ReactorServer, StopIsIdempotentAndStartAfterStopFails) {
  EchoHandler handler;
  net::ReactorOptions options;
  net::ReactorServer server(options, handler);
  ASSERT_TRUE(server.start().has_value());
  server.stop();
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}

TEST(ReactorServer, FixedPortAlreadyServedIsRefused) {
  // Shard listeners use SO_REUSEPORT; a second server on the same fixed
  // port must fail to start rather than silently take half the traffic.
  EchoHandler handler;
  net::ReactorServer first(net::ReactorOptions{}, handler);
  ASSERT_TRUE(first.start().has_value());
  net::ReactorOptions options;
  options.port = first.port();
  net::ReactorServer second(options, handler);
  const pdcu::Status status = second.start();
  ASSERT_FALSE(status.has_value());
  EXPECT_EQ(status.error().code, "net.bind");
  EXPECT_FALSE(second.running());
  first.stop();
}

TEST(NetMetrics, RendersPrometheusTextWithPerShardAccepts) {
  net::NetMetrics metrics;
  metrics.set_shard_count(2);
  metrics.record_accept(0);
  metrics.record_accept(1);
  metrics.record_accept(1);
  metrics.record_requests(5);
  metrics.record_writev(/*partial=*/true);
  metrics.record_write_error();
  const std::string text = metrics.render_text();
  EXPECT_NE(text.find("pdcu_net_accepted_total{shard=\"0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pdcu_net_accepted_total{shard=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pdcu_net_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("pdcu_net_partial_writes_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("pdcu_net_write_errors_total 1"), std::string::npos);
  EXPECT_NE(text.find("pdcu_net_connections_active 3"), std::string::npos);
}

TEST(Socket, ListenerReportsItsEphemeralPort) {
  auto listener = net::open_listener("127.0.0.1", 0, /*reuse_port=*/false,
                                     /*backlog=*/16);
  ASSERT_TRUE(listener.has_value());
  EXPECT_GT(net::bound_port(listener.value()), 0);
  ::close(listener.value());
}

TEST(Socket, TwoReusePortListenersShareOnePort) {
  auto first = net::open_listener("127.0.0.1", 0, /*reuse_port=*/true,
                                  /*backlog=*/16);
  ASSERT_TRUE(first.has_value());
  const std::uint16_t port = net::bound_port(first.value());
  auto second = net::open_listener("127.0.0.1", port, /*reuse_port=*/true,
                                   /*backlog=*/16);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_EQ(net::bound_port(second.value()), port);
  ::close(first.value());
  ::close(second.value());
}

}  // namespace
