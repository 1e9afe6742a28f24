#include "pdcu/cluster/upstream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "pdcu/server/http.hpp"

namespace pdcu::cluster {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

milliseconds remaining(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
  return left.count() > 0 ? left : milliseconds{0};
}

/// Waits for `events` on fd until `deadline`. Returns false on timeout or
/// poll error.
bool wait_for(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = remaining(deadline);
    if (left.count() == 0) return false;
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Non-blocking connect with a poll-bounded handshake. A peer that
/// accepts the SYN but never completes (or a full SYN queue) surfaces
/// here as connect_timeout, not as a hung shard.
Expected<int> connect_within(const std::string& host, std::uint16_t port,
                             milliseconds connect_timeout,
                             Clock::time_point deadline) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return Error::make("cluster.upstream.connect", "socket failed");
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Error::make("cluster.upstream.connect", "bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return Error::make("cluster.upstream.connect",
                         std::string("connect: ") + std::strerror(errno));
    }
    const auto handshake_deadline =
        std::min(deadline, Clock::now() + connect_timeout);
    if (!wait_for(fd, POLLOUT, handshake_deadline)) {
      ::close(fd);
      return Error::make("cluster.upstream.connect_timeout",
                         "handshake exceeded " +
                             std::to_string(connect_timeout.count()) + "ms");
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      ::close(fd);
      return Error::make("cluster.upstream.connect",
                         std::string("connect: ") +
                             std::strerror(so_error ? so_error : errno));
    }
  }
  return fd;
}

Status send_all(int fd, std::string_view bytes, Clock::time_point deadline) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_for(fd, POLLOUT, deadline)) {
        return Error::make("cluster.upstream.timeout", "send stalled");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Error::make("cluster.upstream.send",
                       std::string("send: ") + std::strerror(errno));
  }
  return Status::ok();
}

enum class ReadOutcome { kData, kEof, kTimeout, kError };

/// Appends whatever the socket has to `buffer`, waiting until `deadline`
/// for at least one byte.
ReadOutcome read_some(int fd, std::string& buffer,
                      Clock::time_point deadline) {
  for (;;) {
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      return ReadOutcome::kData;
    }
    if (n == 0) return ReadOutcome::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return ReadOutcome::kError;
    if (!wait_for(fd, POLLIN, deadline)) return ReadOutcome::kTimeout;
  }
}

}  // namespace

UpstreamPool::~UpstreamPool() { clear(); }

int UpstreamPool::take_idle(const std::string& key) {
  std::lock_guard lock(mutex_);
  const auto at = idle_.find(key);
  if (at == idle_.end() || at->second.empty()) return -1;
  const int fd = at->second.back();
  at->second.pop_back();
  return fd;
}

void UpstreamPool::give_back(const std::string& key, int fd) {
  std::lock_guard lock(mutex_);
  auto& stack = idle_[key];
  if (stack.size() >= kMaxIdlePerTarget) {
    ::close(fd);
    return;
  }
  stack.push_back(fd);
}

void UpstreamPool::clear() {
  std::lock_guard lock(mutex_);
  for (auto& [key, stack] : idle_) {
    for (const int fd : stack) ::close(fd);
    stack.clear();
  }
  idle_.clear();
}

Expected<UpstreamReply> UpstreamPool::fetch(
    const std::string& host, std::uint16_t port, const std::string& target,
    const HeaderList& headers, milliseconds connect_timeout,
    milliseconds deadline) {
  const auto give_up = Clock::now() + deadline;
  const std::string key = host + ":" + std::to_string(port);

  // A pooled socket may have been closed by the peer while idle; that
  // surfaces as an immediate send/read failure, and we retry once on a
  // fresh connection rather than charging the replica with an error.
  bool reused = true;
  int fd = take_idle(key);
  for (;;) {
    if (fd < 0) {
      reused = false;
      auto fresh = connect_within(host, port, connect_timeout, give_up);
      if (!fresh) return fresh.error();
      fd = fresh.value();
    }

    std::string request = "GET ";
    request += target;
    request += " HTTP/1.1\r\nHost: ";
    request += host;
    request += "\r\n";
    for (const auto& [name, value] : headers) {
      request += name;
      request += ": ";
      request += value;
      request += "\r\n";
    }
    request += "\r\n";

    const Status sent = send_all(fd, request, give_up);
    if (!sent) {
      ::close(fd);
      fd = -1;
      if (reused) {
        reused = false;
        continue;  // stale pooled socket — one retry on a fresh connect
      }
      return sent.error();
    }

    std::string buffer;
    server::ResponseHead head;
    ReadOutcome last = ReadOutcome::kData;
    while ((head = server::parse_response(buffer)).parse ==
           server::ParseStatus::kIncomplete) {
      last = read_some(fd, buffer, give_up);
      if (last != ReadOutcome::kData) break;
    }
    if (head.parse == server::ParseStatus::kIncomplete) {
      ::close(fd);
      fd = -1;
      if (last == ReadOutcome::kTimeout) {
        return Error::make("cluster.upstream.timeout",
                           "response header timed out");
      }
      if (reused && buffer.empty()) {
        reused = false;
        continue;  // EOF before any byte on a pooled socket: stale
      }
      return Error::make("cluster.upstream.read",
                         "connection closed before response head");
    }
    if (head.parse != server::ParseStatus::kOk) {
      ::close(fd);
      return Error::make("cluster.upstream.read", "malformed response head");
    }
    UpstreamReply reply;
    reply.status = head.status;
    reply.content_type = head.header("content-type").value_or("");

    // A framed body ends at its Content-Length; an unframed one at EOF.
    while (!head.complete(buffer.size())) {
      last = read_some(fd, buffer, give_up);
      if (last == ReadOutcome::kData) continue;
      if (last == ReadOutcome::kEof && !head.content_length) break;
      ::close(fd);
      if (last == ReadOutcome::kTimeout) {
        return Error::make("cluster.upstream.timeout",
                           "response body timed out");
      }
      return Error::make("cluster.upstream.read",
                         "connection closed mid-body");
    }
    reply.body = buffer.substr(head.body_offset,
                               head.content_length.value_or(std::string::npos));

    if (head.close) {
      ::close(fd);
    } else {
      give_back(key, fd);
    }
    return reply;
  }
}

}  // namespace pdcu::cluster
