#include "pdcu/net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "pdcu/net/connection.hpp"
#include "pdcu/net/socket.hpp"
#include "pdcu/net/timer_wheel.hpp"

namespace pdcu::net {
namespace {

constexpr int kMaxEvents = 64;
/// Heartbeat ceiling on epoll_wait so shards notice drain promptly even
/// if an eventfd wake is lost to a race with loop entry.
constexpr int kMaxWaitMs = 200;

}  // namespace

struct ReactorServer::Shard {
  struct Slot {
    std::unique_ptr<Connection> conn;
    std::uint64_t done_mark = 0;  ///< responses_done at last deadline reset
    std::uint32_t interest = EPOLLIN;
  };

  ReactorServer& parent;
  std::size_t index;
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<int, Slot> conns;

  Shard(ReactorServer& parent_in, std::size_t index_in)
      : parent(parent_in), index(index_in) {}

  ~Shard() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  bool add_fd(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void set_interest(int fd, Slot& slot, std::uint32_t events) {
    if (slot.interest == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
    slot.interest = events;
  }

  void close_conn(int fd, TimerWheel& wheel) {
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
    wheel.cancel(static_cast<std::uint64_t>(fd));
    parent.active_.fetch_sub(1, std::memory_order_relaxed);
    if (parent.options_.metrics != nullptr) {
      parent.options_.metrics->record_close();
    }
  }

  /// Applies a Connection event verdict: close, or refresh epoll interest
  /// and (when a response completed) the read deadline.
  void settle(int fd, Connection::Event event, TimerWheel& wheel,
              TimerWheel::Clock::time_point now) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    Slot& slot = it->second;
    if (event == Connection::Event::kClose) {
      close_conn(fd, wheel);
      return;
    }
    set_interest(fd, slot, slot.conn->want_write() ? EPOLLOUT : EPOLLIN);
    if (slot.conn->responses_done() != slot.done_mark) {
      slot.done_mark = slot.conn->responses_done();
      wheel.schedule(static_cast<std::uint64_t>(fd),
                     now + parent.options_.read_timeout);
    }
  }

  void accept_all(TimerWheel& wheel, TimerWheel::Clock::time_point now) {
    while (true) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: drained; anything else: give up for this wake
      }
      if (!admit()) {
        // Over the global cap: answer 503 (best effort on a socket that
        // was just accepted, so the buffer is empty) and hang up.
        const std::string wire = parent.handler_.overload_response();
        if (!wire.empty()) {
          const ssize_t n =
              ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
          if (n == static_cast<ssize_t>(wire.size())) {
            parent.handler_.on_connection_error(503, wire.size());
          }
        }
        if (parent.options_.metrics != nullptr) {
          parent.options_.metrics->record_overload();
        }
        ::close(fd);
        continue;
      }
      if (parent.options_.metrics != nullptr) {
        parent.options_.metrics->record_accept(index);
      }
      ConnectionLimits limits;
      limits.max_buffer_bytes = parent.options_.max_buffer_bytes;
      limits.max_requests = parent.options_.max_requests_per_connection;
      Slot slot;
      slot.conn = std::make_unique<Connection>(
          fd, parent.handler_, parent.options_.metrics, limits);
      if (!add_fd(fd, EPOLLIN)) {
        ::close(fd);
        parent.active_.fetch_sub(1, std::memory_order_relaxed);
        if (parent.options_.metrics != nullptr) {
          parent.options_.metrics->record_close();
        }
        continue;
      }
      wheel.schedule(static_cast<std::uint64_t>(fd),
                     now + parent.options_.read_timeout);
      conns.emplace(fd, std::move(slot));
    }
  }

  bool admit() {
    const std::uint64_t cap = parent.options_.max_connections;
    std::uint64_t current = parent.active_.load(std::memory_order_relaxed);
    while (current < cap) {
      if (parent.active_.compare_exchange_weak(current, current + 1,
                                               std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void run() {
    TimerWheel wheel(TimerWheel::Clock::now());
    bool draining = false;
    TimerWheel::Clock::time_point drain_deadline{};
    std::array<epoll_event, kMaxEvents> events{};

    while (true) {
      auto now = TimerWheel::Clock::now();
      if (!draining &&
          parent.draining_.load(std::memory_order_acquire)) {
        draining = true;
        drain_deadline = now + parent.options_.drain_timeout;
        if (listen_fd >= 0) {
          ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listen_fd = -1;
        }
      }
      if (draining) {
        // Idle keep-alive connections have nothing owed to them; anything
        // mid-request or mid-response gets until the drain deadline.
        for (auto it = conns.begin(); it != conns.end();) {
          const int fd = it->first;
          const bool expired = now >= drain_deadline;
          if (expired || it->second.conn->idle()) {
            ++it;  // advance before close_conn erases
            close_conn(fd, wheel);
          } else {
            ++it;
          }
        }
        if (conns.empty()) return;
      }

      int timeout_ms = kMaxWaitMs;
      const auto next = wheel.next_deadline();
      if (next != TimerWheel::Clock::time_point::max()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                               next - now)
                               .count();
        timeout_ms = static_cast<int>(
            std::clamp<long long>(until + 1, 0, kMaxWaitMs));
      }

      const int ready =
          ::epoll_wait(epoll_fd, events.data(), kMaxEvents, timeout_ms);
      now = TimerWheel::Clock::now();
      for (int i = 0; i < ready; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
        if (fd == wake_fd) {
          std::uint64_t token = 0;
          while (::read(wake_fd, &token, sizeof token) > 0) {
          }
          continue;
        }
        if (fd == listen_fd) {
          accept_all(wheel, now);
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        if ((mask & (EPOLLERR | EPOLLHUP)) != 0 &&
            (mask & (EPOLLIN | EPOLLOUT)) == 0) {
          close_conn(fd, wheel);
          continue;
        }
        Connection::Event event = Connection::Event::kKeep;
        if ((mask & EPOLLOUT) != 0) {
          event = it->second.conn->on_writable(draining);
        } else {
          event = it->second.conn->on_readable(draining);
        }
        settle(fd, event, wheel, now);
      }

      for (const std::uint64_t id : wheel.advance(now)) {
        auto it = conns.find(static_cast<int>(id));
        if (it == conns.end()) continue;
        it->second.conn->on_timeout();
        close_conn(static_cast<int>(id), wheel);
      }
    }
  }
};

ReactorServer::ReactorServer(ReactorOptions options, Handler& handler)
    : options_(std::move(options)), handler_(handler) {
  if (options_.shards == 0) options_.shards = 1;
}

ReactorServer::~ReactorServer() { stop(); }

Status ReactorServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Error::make("net.reactor", "already running");
  }
  draining_.store(false, std::memory_order_release);
  shards_.clear();
  active_.store(0, std::memory_order_relaxed);

  std::uint16_t port = options_.port;
  if (port != 0) {
    if (const Status free = check_port_free(options_.host, port); !free) {
      return free.error().context("reactor port " + std::to_string(port));
    }
  }
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(*this, i);
    // Every listener sets SO_REUSEPORT so N of them can share the port;
    // the first bind resolves an ephemeral request to a concrete port
    // that the remaining shards then reuse.
    auto listener =
        open_listener(options_.host, port, /*reuse_port=*/true,
                      options_.listen_backlog);
    if (!listener) {
      shards_.clear();
      return listener.error().context("reactor shard " + std::to_string(i));
    }
    shard->listen_fd = listener.value();
    if (i == 0) {
      port = bound_port(shard->listen_fd);
      if (port == 0) {
        shards_.clear();
        return Error::make("net.reactor", "could not resolve bound port");
      }
    }
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->epoll_fd < 0 || shard->wake_fd < 0 ||
        !shard->add_fd(shard->listen_fd, EPOLLIN) ||
        !shard->add_fd(shard->wake_fd, EPOLLIN)) {
      shards_.clear();
      return Error::make("net.reactor",
                         std::string("epoll setup: ") + std::strerror(errno));
    }
    shards_.push_back(std::move(shard));
  }
  port_ = port;
  if (options_.metrics != nullptr) {
    options_.metrics->set_shard_count(options_.shards);
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw] { raw->run(); });
  }
  running_.store(true, std::memory_order_release);
  return Status::ok();
}

void ReactorServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  const std::uint64_t token = 1;
  for (auto& shard : shards_) {
    if (shard->wake_fd >= 0) {
      [[maybe_unused]] const ssize_t n =
          ::write(shard->wake_fd, &token, sizeof token);
    }
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  shards_.clear();
}

}  // namespace pdcu::net
