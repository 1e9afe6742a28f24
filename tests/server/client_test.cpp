// The one client connection, stepped by hand: the test plays the peer on
// the other end of a socketpair (or of a loopback connection) and decides
// when the exchange sees readiness, so every framing, keep-alive, timeout
// and retry rule is checked on one thread.
#include "pdcu/server/client.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <string_view>

namespace server = pdcu::server;
using server::ClientExchange;
using Want = ClientExchange::Want;
using Failure = ClientExchange::Failure;
using Clock = ClientExchange::Clock;
using std::chrono::milliseconds;

namespace {

const std::string kRequest = server::get_request("t", "/x");
const std::string kKeepAliveReply =
    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n"
    "\r\nhello";

/// A connected non-blocking socketpair: `client` goes to the exchange (a
/// reused socket), `peer` stays with the test.
struct Pair {
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    client = fds[0];
    peer = fds[1];
  }
  ~Pair() { ::close(peer); }

  void send(std::string_view bytes) const {
    EXPECT_EQ(::send(peer, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Whatever the exchange has written so far.
  std::string received() const {
    std::string out;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(peer, chunk, sizeof chunk, 0)) > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

  int client = -1;
  int peer = -1;
};

/// A loopback listener on an ephemeral port, for the fresh-connect path.
struct Listener {
  Listener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    ::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof address);
    ::listen(fd, 4);
    socklen_t length = sizeof address;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
    port = ntohs(address.sin_port);
  }
  ~Listener() { ::close(fd); }

  int fd = -1;
  std::uint16_t port = 0;
};

Clock::time_point far() { return Clock::now() + std::chrono::seconds(10); }

}  // namespace

TEST(ClientExchange, ReplySplitAtEveryByteBoundaryFramesTheSame) {
  for (std::size_t cut = 1; cut < kKeepAliveReply.size(); ++cut) {
    Pair pair;
    ClientExchange exchange(kRequest, pair.client, far());
    ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead) << cut;
    EXPECT_EQ(pair.received(), kRequest);

    pair.send(std::string_view(kKeepAliveReply).substr(0, cut));
    ASSERT_EQ(exchange.step(true, Clock::now()), Want::kRead) << cut;
    pair.send(std::string_view(kKeepAliveReply).substr(cut));
    ASSERT_EQ(exchange.step(true, Clock::now()), Want::kDone) << cut;

    const server::ClientReply& reply = exchange.reply();
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.content_type, "text/plain");
    EXPECT_EQ(reply.body, "hello");
    EXPECT_TRUE(reply.keep_alive);
    const int kept = exchange.release();
    EXPECT_EQ(kept, pair.client);
    ::close(kept);
  }
}

TEST(ClientExchange, UnframedBodyEndsAtEof) {
  Pair pair;
  ClientExchange exchange(kRequest, pair.client, far());
  ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead);
  pair.send("HTTP/1.1 200 OK\r\n\r\nhel");
  ASSERT_EQ(exchange.step(true, Clock::now()), Want::kRead)
      << "an unframed body is not over until the peer closes";
  pair.send("lo");
  ::shutdown(pair.peer, SHUT_WR);
  ASSERT_EQ(exchange.step(true, Clock::now()), Want::kDone);
  EXPECT_EQ(exchange.reply().body, "hello");
  EXPECT_FALSE(exchange.reply().keep_alive);
  EXPECT_EQ(exchange.release(), -1);
}

TEST(ClientExchange, KeptSocketCarriesTheNextExchange) {
  Listener listener;
  ClientExchange first(server::get_request("t", "/first"), "127.0.0.1",
                       listener.port, far(), far());
  const Want started = first.step(false, Clock::now());
  ASSERT_TRUE(started == Want::kWrite || started == Want::kRead);
  const int server_side = ::accept(listener.fd, nullptr, nullptr);
  ASSERT_GE(server_side, 0);
  ::send(server_side, kKeepAliveReply.data(), kKeepAliveReply.size(), 0);
  ASSERT_EQ(server::poll_until_done(first), Want::kDone);
  ASSERT_TRUE(first.reply().keep_alive);

  ClientExchange second(server::get_request("t", "/second"), first.release(),
                        far());
  const std::string reply = "HTTP/1.1 204 No Content\r\n\r\n";
  ::send(server_side, reply.data(), reply.size(), 0);
  ASSERT_EQ(server::poll_until_done(second), Want::kDone);
  EXPECT_EQ(second.reply().status, 204);
  EXPECT_EQ(second.reply().body, "");
  EXPECT_TRUE(second.reply().keep_alive);

  // Both requests came in on the one server-side connection.
  std::string requests;
  char chunk[4096];
  const ssize_t n = ::recv(server_side, chunk, sizeof chunk, MSG_DONTWAIT);
  if (n > 0) requests.assign(chunk, static_cast<std::size_t>(n));
  EXPECT_NE(requests.find("GET /first "), std::string::npos) << requests;
  EXPECT_NE(requests.find("GET /second "), std::string::npos) << requests;
  ::close(server_side);
}

TEST(ClientExchange, MalformedHeadIsAReadFailure) {
  Pair pair;
  ClientExchange exchange(kRequest, pair.client, far());
  ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead);
  pair.send("HTTP/1.1 2xx OK\r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(exchange.step(true, Clock::now()), Want::kFailed);
  EXPECT_EQ(exchange.failure(), Failure::kRead);
  EXPECT_NE(exchange.detail().find("malformed"), std::string::npos);
  EXPECT_FALSE(exchange.stale()) << "the peer answered; it was not idle";
  EXPECT_EQ(exchange.fd(), -1);
}

TEST(ClientExchange, SilentPeerTimesOutAtTheDeadline) {
  Pair pair;
  const Clock::time_point deadline = far();
  ClientExchange exchange(kRequest, pair.client, deadline);
  ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead);
  EXPECT_EQ(exchange.step(false, deadline - milliseconds(1)), Want::kRead);
  ASSERT_EQ(exchange.step(false, deadline), Want::kFailed);
  EXPECT_EQ(exchange.failure(), Failure::kTimeout);
  EXPECT_FALSE(exchange.stale());

  // The blocking driver returns at that deadline too.
  Pair silent;
  const auto start = Clock::now();
  ClientExchange waited(kRequest, silent.client, start + milliseconds(50));
  ASSERT_EQ(server::poll_until_done(waited), Want::kFailed);
  EXPECT_EQ(waited.failure(), Failure::kTimeout);
  EXPECT_GE(Clock::now() - start, milliseconds(50));
  EXPECT_LT(Clock::now() - start, milliseconds(1000));
}

TEST(ClientExchange, ReusedSocketClosedBeforeAnyByteIsStale) {
  Pair idle;
  ClientExchange exchange(kRequest, idle.client, far());
  ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead);
  ::shutdown(idle.peer, SHUT_RDWR);
  ASSERT_EQ(exchange.step(true, Clock::now()), Want::kFailed);
  EXPECT_EQ(exchange.failure(), Failure::kRead);
  EXPECT_TRUE(exchange.stale());

  // Part of a head before the close: the peer was serving, not idle.
  Pair cut;
  ClientExchange partial(kRequest, cut.client, far());
  ASSERT_EQ(partial.step(false, Clock::now()), Want::kRead);
  cut.send("HTTP/1.1 200");
  ::shutdown(cut.peer, SHUT_RDWR);
  ASSERT_EQ(partial.step(true, Clock::now()), Want::kFailed);
  EXPECT_EQ(partial.failure(), Failure::kRead);
  EXPECT_FALSE(partial.stale());

  // A fresh connection closed before any byte was never idle either.
  Listener listener;
  ClientExchange fresh(kRequest, "127.0.0.1", listener.port, far(), far());
  fresh.step(false, Clock::now());
  ::close(::accept(listener.fd, nullptr, nullptr));
  ASSERT_EQ(server::poll_until_done(fresh), Want::kFailed);
  EXPECT_FALSE(fresh.stale());
}

TEST(ClientExchange, ConnectionCloseReleasesNoSocket) {
  // "Connection: close", and a reply with stray bytes past its body,
  // cannot carry another exchange.
  for (const std::string reply :
       {"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1"}) {
    Pair pair;
    ClientExchange exchange(kRequest, pair.client, far());
    ASSERT_EQ(exchange.step(false, Clock::now()), Want::kRead);
    pair.send(reply);
    ASSERT_EQ(exchange.step(true, Clock::now()), Want::kDone) << reply;
    EXPECT_EQ(exchange.reply().body, "ok");
    EXPECT_FALSE(exchange.reply().keep_alive);
    EXPECT_EQ(exchange.release(), -1);
    pair.received();
    char byte = 0;
    EXPECT_EQ(::recv(pair.peer, &byte, 1, 0), 0)
        << "the exchange closed its end";
  }
}

TEST(ClientExchange, RefusedConnectFailsAsConnect) {
  std::uint16_t closed_port = 0;
  {
    Listener gone;
    closed_port = gone.port;
  }
  ClientExchange exchange(kRequest, "127.0.0.1", closed_port, far(), far());
  ASSERT_EQ(server::poll_until_done(exchange), Want::kFailed);
  EXPECT_EQ(exchange.failure(), Failure::kConnect);
  EXPECT_EQ(server::failure_name(exchange.failure()), "connect");
}
