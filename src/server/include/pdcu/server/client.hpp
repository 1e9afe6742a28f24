// The one HTTP/1.1 client connection every client in the repository steps:
// the load generator's epoll loop, the front tier's upstream fetch and the
// one-shot fetch_once. A ClientExchange is one GET's whole life on one
// socket: a non-blocking connect (or a kept-alive socket to reuse), the
// request write, and the reply read, framed by parse_response. It does the
// socket calls itself but never waits: the driver waits for the readiness
// step() asks for (epoll, poll, or a test's own hand) and steps it again,
// passing the time, so every deadline is checked in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdcu::server {

/// A framed reply. `keep_alive` says the socket may carry the next
/// request: the server did not close it and sent nothing past the body.
struct ClientReply {
  int status = 0;
  std::string content_type;
  std::string body;
  bool keep_alive = false;
};

class ClientExchange {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Want { kWrite, kRead, kDone, kFailed };

  enum class Failure {
    kNone,
    kConnect,         ///< refused, unreachable, or a bad address
    kConnectTimeout,  ///< the handshake missed its deadline
    kSend,
    kRead,            ///< reset, closed early, or a malformed reply
    kTimeout,         ///< connected, then the exchange missed its deadline
    kLocal,           ///< no socket could be made here (EMFILE, ENFILE, ...)
  };

  /// Sends `request` over `kept_fd`, a non-blocking socket an earlier
  /// exchange released; this exchange owns it from here on.
  ClientExchange(std::string request, int kept_fd,
                 Clock::time_point deadline);
  /// Connects to host:port first (host is a dotted IPv4 address). The
  /// handshake must finish by min(connect_deadline, deadline).
  ClientExchange(std::string request, const std::string& host,
                 std::uint16_t port, Clock::time_point connect_deadline,
                 Clock::time_point deadline);
  ~ClientExchange();

  ClientExchange(const ClientExchange&) = delete;
  ClientExchange& operator=(const ClientExchange&) = delete;

  /// Advances the exchange. The first call opens the socket and starts
  /// the write whatever `ready` says; after that `ready` means the driver
  /// saw the socket become ready for what the last step wanted. A step
  /// with `ready` false only checks the deadline at `now`.
  Want step(bool ready, Clock::time_point now);

  /// The socket to wait on while kWrite or kRead; -1 otherwise.
  int fd() const { return fd_; }
  /// When the step in progress times out: the connect deadline while
  /// connecting, the exchange deadline after.
  Clock::time_point wake_at() const {
    return phase_ == Phase::kConnecting ? connect_deadline_ : deadline_;
  }

  /// After kDone.
  ClientReply& reply() { return reply_; }
  /// After kDone with reply().keep_alive: hands the socket to the caller
  /// for the next exchange. -1 when the exchange closed it.
  int release() { return std::exchange(fd_, -1); }

  /// After kFailed. The socket is closed by then.
  Failure failure() const { return failure_; }
  const std::string& detail() const { return detail_; }
  /// The failure met a reused socket before any reply byte came back: the
  /// peer most likely closed it while it sat idle, so one retry on a
  /// fresh connection is owed, not an error against the peer.
  bool stale() const {
    return reused_ && in_.empty() &&
           (failure_ == Failure::kSend || failure_ == Failure::kRead);
  }

 private:
  enum class Phase { kStart, kConnecting, kSending, kReading, kDone, kFailed };

  void open();
  void connected();
  void write();
  void read();
  void fail(Failure failure, std::string detail);

  std::string out_;
  std::size_t written_ = 0;
  std::string in_;
  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;
  const bool reused_;
  Phase phase_ = Phase::kStart;
  Clock::time_point connect_deadline_, deadline_;
  ClientReply reply_;
  Failure failure_ = Failure::kNone;
  std::string detail_;
};

/// The failure's code suffix: "connect", "connect_timeout", "send",
/// "read", "timeout" or "local".
std::string_view failure_name(ClientExchange::Failure failure);

/// "GET <target> HTTP/1.1" with a Host header, then `headers`.
std::string get_request(
    std::string_view host, std::string_view target,
    const std::vector<std::pair<std::string, std::string>>& headers = {});

/// The blocking driver: steps `exchange` on the calling thread, waiting in
/// poll(2), until it is kDone or kFailed, and returns which.
ClientExchange::Want poll_until_done(ClientExchange& exchange);

}  // namespace pdcu::server
