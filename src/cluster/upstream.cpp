#include "pdcu/cluster/upstream.hpp"

#include <unistd.h>

#include <utility>

namespace pdcu::cluster {

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
    const HeaderList& headers, std::chrono::milliseconds connect_timeout,
    std::chrono::milliseconds deadline) {
  using server::ClientExchange;
  const auto give_up = ClientExchange::Clock::now() + deadline;
  const std::string key = host + ":" + std::to_string(port);
  const std::string request = server::get_request(host, target, headers);

  // A pooled socket the peer closed while it sat idle fails before any
  // reply byte: one retry on a fresh connection, not an error against the
  // replica.
  int fd = take_idle(key);
  for (;;) {
    ClientExchange exchange =
        fd >= 0 ? ClientExchange(request, std::exchange(fd, -1), give_up)
                : ClientExchange(request, host, port,
                                 ClientExchange::Clock::now() + connect_timeout,
                                 give_up);
    if (server::poll_until_done(exchange) == ClientExchange::Want::kDone) {
      if (exchange.reply().keep_alive) give_back(key, exchange.release());
      return std::move(exchange.reply());
    }
    if (!exchange.stale()) {
      return Error::make("cluster.upstream." +
                             std::string(server::failure_name(
                                 exchange.failure())),
                         exchange.detail());
    }
  }
}

}  // namespace pdcu::cluster
