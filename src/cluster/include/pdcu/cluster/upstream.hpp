// The front tier's blocking upstream fetch: one server::ClientExchange
// stepped by server::poll_until_done, plus a per-target stack of idle
// keep-alive sockets. The exchange owns connect, write, read, framing and
// both deadlines; this pool owns only which socket an exchange starts on.
//
//  * Connect timeouts. A replica that is SYN-reachable but never completes
//    the handshake (half-open peer, dropped by a fault rule, or a SYN queue
//    full after SIGKILL) costs one bounded attempt, not a hung front shard.
//  * Connection reuse keyed by target. The front re-contacts the same M
//    replicas for every request; reusing idle sockets keeps the proxy hop
//    at one RTT instead of three. A pooled socket the replica closed while
//    it sat idle earns one retry on a fresh connection.
//
// Every call carries its remaining deadline budget so a slow upstream
// cannot spend time the request no longer has.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pdcu/server/client.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::cluster {

/// A parsed upstream response, ready to re-serialize toward the client.
using UpstreamReply = server::ClientReply;

/// Extra request headers, e.g. the propagated deadline budget.
using HeaderList = std::vector<std::pair<std::string, std::string>>;

class UpstreamPool {
 public:
  UpstreamPool() = default;
  ~UpstreamPool();

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// One GET against host:port. `connect_timeout` bounds the handshake;
  /// `deadline` is the total remaining budget for the whole exchange
  /// (connect included). Error codes: cluster.upstream.connect,
  /// .connect_timeout, .send, .read, .timeout, and .local when no socket
  /// could be made on this side (the descriptor table is full).
  Expected<UpstreamReply> fetch(const std::string& host, std::uint16_t port,
                                const std::string& target,
                                const HeaderList& headers,
                                std::chrono::milliseconds connect_timeout,
                                std::chrono::milliseconds deadline);

  /// Closes every pooled socket (e.g. after a replica was killed).
  void clear();

 private:
  int take_idle(const std::string& key);
  void give_back(const std::string& key, int fd);

  /// Idle sockets kept per target: one for each default front shard.
  static constexpr std::size_t kMaxIdlePerTarget = 4;

  std::mutex mutex_;
  std::map<std::string, std::vector<int>> idle_;
};

}  // namespace pdcu::cluster
