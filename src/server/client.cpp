#include "pdcu/server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "pdcu/server/http.hpp"

namespace pdcu::server {

using Want = ClientExchange::Want;
using Failure = ClientExchange::Failure;

ClientExchange::ClientExchange(std::string request, int kept_fd,
                               Clock::time_point deadline)
    : out_(std::move(request)),
      fd_(kept_fd),
      reused_(true),
      connect_deadline_(deadline),
      deadline_(deadline) {}

ClientExchange::ClientExchange(std::string request, const std::string& host,
                               std::uint16_t port,
                               Clock::time_point connect_deadline,
                               Clock::time_point deadline)
    : out_(std::move(request)),
      host_(host),
      port_(port),
      reused_(false),
      connect_deadline_(std::min(connect_deadline, deadline)),
      deadline_(deadline) {}

ClientExchange::~ClientExchange() {
  if (fd_ >= 0) ::close(fd_);
}

void ClientExchange::fail(Failure failure, std::string detail) {
  failure_ = failure;
  detail_ = std::move(detail);
  phase_ = Phase::kFailed;
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Want ClientExchange::step(bool ready, Clock::time_point now) {
  if (phase_ == Phase::kStart) {
    open();
    ready = phase_ == Phase::kSending;  // reused or connected at once
  } else if (ready && phase_ == Phase::kConnecting) {
    connected();
  }
  if (ready && phase_ == Phase::kSending) {
    write();
  } else if (ready && phase_ == Phase::kReading) {
    read();
  }
  if (phase_ == Phase::kDone) return Want::kDone;
  if (phase_ != Phase::kFailed && now >= wake_at()) {
    const bool connecting = phase_ == Phase::kConnecting;
    fail(connecting ? Failure::kConnectTimeout : Failure::kTimeout,
         connecting ? "handshake timed out" : "exchange timed out");
  }
  if (phase_ == Phase::kFailed) return Want::kFailed;
  return phase_ == Phase::kReading ? Want::kRead : Want::kWrite;
}

void ClientExchange::open() {
  phase_ = Phase::kSending;
  if (reused_) return;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &address.sin_addr) != 1) {
    return fail(Failure::kConnect, "bad address " + host_);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return fail(Failure::kLocal,
                std::string("socket: ") + std::strerror(errno));
  }
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) == 0) {
    return;
  }
  if (errno == EINPROGRESS) {
    phase_ = Phase::kConnecting;
    return;
  }
  fail(Failure::kConnect, std::string("connect: ") + std::strerror(errno));
}

void ClientExchange::connected() {
  int error = 0;
  socklen_t length = sizeof error;
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &length) != 0) {
    error = errno;
  }
  if (error != 0) {
    return fail(Failure::kConnect,
                std::string("connect: ") + std::strerror(error));
  }
  phase_ = Phase::kSending;
}

void ClientExchange::write() {
  while (written_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + written_,
                             out_.size() - written_, MSG_NOSIGNAL);
    if (n >= 0) {
      written_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    return fail(Failure::kSend, std::string("send: ") + std::strerror(errno));
  }
  phase_ = Phase::kReading;
}

void ClientExchange::read() {
  char chunk[16 * 1024];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return fail(Failure::kRead, std::string("recv: ") + std::strerror(errno));
  }

  const ResponseHead head = parse_response(in_);
  if (head.parse == ParseStatus::kIncomplete) {
    if (eof) fail(Failure::kRead, "connection closed before the reply head");
    return;
  }
  if (head.parse != ParseStatus::kOk) {
    return fail(Failure::kRead, "malformed reply head");
  }
  // A framed body ends at its Content-Length, an unframed one at EOF.
  if (head.content_length && !head.complete(in_.size())) {
    if (eof) fail(Failure::kRead, "connection closed mid-body");
    return;
  }
  if (!head.content_length && !eof) return;

  const std::size_t end =
      head.content_length ? head.body_offset + *head.content_length
                          : in_.size();
  reply_.status = head.status;
  reply_.content_type = head.header("content-type").value_or("");
  reply_.keep_alive = !head.close && !eof && in_.size() == end;
  in_.resize(end);
  in_.erase(0, head.body_offset);
  reply_.body = std::move(in_);
  phase_ = Phase::kDone;
  if (!reply_.keep_alive) ::close(std::exchange(fd_, -1));
}

std::string_view failure_name(Failure failure) {
  constexpr std::string_view kNames[] = {
      "none", "connect", "connect_timeout", "send", "read", "timeout", "local"};
  return kNames[static_cast<std::size_t>(failure)];
}

std::string get_request(
    std::string_view host, std::string_view target,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string request = "GET ";
  request.append(target).append(" HTTP/1.1\r\nHost: ").append(host);
  for (const auto& [name, value] : headers) {
    request.append("\r\n").append(name).append(": ").append(value);
  }
  return request.append("\r\n\r\n");
}

Want poll_until_done(ClientExchange& exchange) {
  using Clock = ClientExchange::Clock;
  Want want = exchange.step(false, Clock::now());
  while (want == Want::kWrite || want == Want::kRead) {
    // Rounded up, so a wake-up before the deadline only polls again.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        exchange.wake_at() - Clock::now());
    pollfd pfd{exchange.fd(),
               static_cast<short>(want == Want::kWrite ? POLLOUT : POLLIN),
               0};
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::clamp<long long>(left.count(), 0,
                                                         INT_MAX)));
    want = exchange.step(ready > 0, Clock::now());
  }
  return want;
}

}  // namespace pdcu::server
