// The load generator's client: one thread multiplexing every configured
// connection through non-blocking state machines (see loadgen.hpp for the
// schedule semantics). Responses are framed by server::parse_response.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <queue>
#include <string>
#include <vector>

#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/server/http.hpp"

namespace pdcu::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

/// One multiplexed connection's request-in-flight state machine.
struct Conn {
  enum class State {
    kIdle,        ///< between requests (socket may stay open: keep-alive)
    kConnecting,  ///< non-blocking connect in flight (EPOLLOUT = done)
    kSending,     ///< request partially written (EPOLLOUT)
    kReading,     ///< awaiting/parsing the response (EPOLLIN)
  };

  int fd = -1;
  State state = State::kIdle;
  std::size_t cursor = 0;  ///< how many of this conn's slice are finished
  Clock::time_point intended;  ///< in-flight request's scheduled send time
  Clock::time_point deadline;  ///< in-flight request's timeout
  std::string out;             ///< request bytes still to write
  std::size_t out_off = 0;
  std::string in;              ///< unparsed response bytes
};

struct Tally {
  obs::Histogram latency_us;
  std::uint64_t max_latency_us = 0;
  std::uint64_t completed = 0;
  std::uint64_t status_2xx = 0, status_3xx = 0, status_4xx = 0,
                status_5xx = 0;
  std::uint64_t connect_errors = 0, send_errors = 0, read_errors = 0,
                timeouts = 0;
  std::uint64_t open_now = 0, peak_open = 0;
  Clock::time_point last_response;
};

class EpollDriver {
 public:
  EpollDriver(const Options& options,
              const std::vector<ScheduledRequest>& schedule,
              std::size_t connections)
      : options_(options),
        schedule_(schedule),
        conns_(connections),
        stride_(connections) {}

  Result run() {
    Result result;
    result.target_rate = options_.schedule.rate;
    result.scheduled = schedule_.size();

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return result;
    ::inet_pton(AF_INET, options_.host.c_str(), &addr_.sin_addr);
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(options_.port);

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    start_ = start;
    tally_.last_response = start;
    // Every connection starts idle: seed the start queue with each one's
    // first scheduled request.
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (slice_index(c, 0) < schedule_.size()) {
        starts_.push({intended_at(c, 0), c});
      }
    }

    std::vector<epoll_event> events(1024);
    while (in_flight_ > 0 || !starts_.empty()) {
      const Clock::time_point now = Clock::now();
      launch_due(now);
      sweep_timeouts(now);
      if (in_flight_ == 0 && starts_.empty()) break;

      const int timeout_ms = wait_budget_ms(Clock::now());
      const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                     static_cast<int>(events.size()),
                                     timeout_ms);
      for (int i = 0; i < ready; ++i) {
        on_event(static_cast<std::size_t>(events[static_cast<std::size_t>(i)]
                                              .data.u64),
                 events[static_cast<std::size_t>(i)].events);
      }
    }

    for (Conn& conn : conns_) close_conn(conn);
    ::close(epoll_fd_);

    result.completed = tally_.completed;
    result.status_2xx = tally_.status_2xx;
    result.status_3xx = tally_.status_3xx;
    result.status_4xx = tally_.status_4xx;
    result.status_5xx = tally_.status_5xx;
    result.connect_errors = tally_.connect_errors;
    result.send_errors = tally_.send_errors;
    result.read_errors = tally_.read_errors;
    result.timeouts = tally_.timeouts;
    result.latency_us = tally_.latency_us.snapshot();
    result.max_latency_us = tally_.max_latency_us;
    result.peak_connections = tally_.peak_open;
    result.wall_s =
        std::chrono::duration<double>(tally_.last_response - start).count();
    if (result.wall_s > 0.0) {
      result.achieved_rate =
          static_cast<double>(result.completed) / result.wall_s;
    }
    return result;
  }

 private:
  /// Schedule index of connection `c`'s `cursor`-th request.
  std::size_t slice_index(std::size_t c, std::size_t cursor) const {
    return c + cursor * stride_;
  }
  Clock::time_point intended_at(std::size_t c, std::size_t cursor) const {
    return start_ + std::chrono::nanoseconds(
                        schedule_[slice_index(c, cursor)].offset_ns);
  }

  /// Starts every connection whose next request's intended time arrived.
  void launch_due(Clock::time_point now) {
    while (!starts_.empty() && starts_.top().first <= now) {
      const std::size_t c = starts_.top().second;
      starts_.pop();
      begin_request(conns_[c], c, now);
    }
  }

  /// The only place in_flight_ changes: it is exactly the number of
  /// connections whose state machine is mid-request (non-idle).
  void set_state(Conn& conn, Conn::State next) {
    const bool was_active = conn.state != Conn::State::kIdle;
    const bool now_active = next != Conn::State::kIdle;
    if (now_active && !was_active) ++in_flight_;
    if (!now_active && was_active) --in_flight_;
    conn.state = next;
  }

  void begin_request(Conn& conn, std::size_t c, Clock::time_point now) {
    const ScheduledRequest& request = schedule_[slice_index(c, conn.cursor)];
    conn.intended = intended_at(c, conn.cursor);
    // The timeout is an I/O bound, so it runs from actual initiation, not
    // the intended time — a late start (CO backlog) inflates latency, not
    // the error counts.
    conn.deadline = now + options_.timeout;
    if (request.fresh_connection) close_conn(conn);

    conn.out = "GET ";
    conn.out += request.target;
    conn.out += " HTTP/1.1\r\nHost: ";
    conn.out += options_.host;
    conn.out += "\r\nUser-Agent: pdcu-loadgen\r\n\r\n";
    conn.out_off = 0;
    conn.in.clear();

    if (conn.fd >= 0) {
      set_state(conn, Conn::State::kSending);
      continue_send(conn, c);
      return;
    }
    conn.fd = ::socket(AF_INET,
                       SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) {
      finish_error(conn, c, &Tally::connect_errors);
      return;
    }
    const int nodelay = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof nodelay);
    ++tally_.open_now;
    tally_.peak_open = std::max(tally_.peak_open, tally_.open_now);
    const int rc = ::connect(
        conn.fd, reinterpret_cast<const sockaddr*>(&addr_), sizeof addr_);
    if (rc == 0) {
      register_fd(conn, c, EPOLLOUT);
      set_state(conn, Conn::State::kSending);
      continue_send(conn, c);
      return;
    }
    if (errno == EINPROGRESS) {
      register_fd(conn, c, EPOLLOUT);
      set_state(conn, Conn::State::kConnecting);
      return;
    }
    finish_error(conn, c, &Tally::connect_errors);
  }

  void register_fd(Conn& conn, std::size_t c, std::uint32_t mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  void rearm(Conn& conn, std::size_t c, std::uint32_t mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void close_conn(Conn& conn) {
    if (conn.fd < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    conn.in.clear();
    if (tally_.open_now > 0) --tally_.open_now;
  }

  /// The in-flight request failed; count it and queue the next one.
  void finish_error(Conn& conn, std::size_t c,
                    std::uint64_t Tally::* counter) {
    ++(tally_.*counter);
    close_conn(conn);
    advance(conn, c);
  }

  void finish_ok(Conn& conn, std::size_t c, int status, bool server_closes,
                 Clock::time_point now) {
    const auto latency = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - conn.intended)
            .count());
    tally_.latency_us.record(latency);
    tally_.max_latency_us = std::max(tally_.max_latency_us, latency);
    ++tally_.completed;
    tally_.last_response = std::max(tally_.last_response, now);
    if (status >= 200 && status < 300) {
      ++tally_.status_2xx;
    } else if (status < 400) {
      ++tally_.status_3xx;
    } else if (status < 500) {
      ++tally_.status_4xx;
    } else {
      ++tally_.status_5xx;
    }
    if (server_closes) {
      close_conn(conn);
    } else {
      rearm(conn, c, 0);  // parked: no interest until the next request
    }
    advance(conn, c);
  }

  /// Moves a connection to its next scheduled request (or retires it).
  void advance(Conn& conn, std::size_t c) {
    set_state(conn, Conn::State::kIdle);
    ++conn.cursor;
    if (slice_index(c, conn.cursor) < schedule_.size()) {
      starts_.push({intended_at(c, conn.cursor), c});
    }
  }

  /// Entered with state == kSending (set_state already counted it).
  void continue_send(Conn& conn, std::size_t c) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          rearm(conn, c, EPOLLOUT);
          return;
        }
        finish_error(conn, c, &Tally::send_errors);
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    set_state(conn, Conn::State::kReading);
    rearm(conn, c, EPOLLIN);
  }

  void on_event(std::size_t c, std::uint32_t mask) {
    Conn& conn = conns_[c];
    switch (conn.state) {
      case Conn::State::kIdle:
        return;  // stale event for a parked/closed connection
      case Conn::State::kConnecting: {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if ((mask & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
          finish_error(conn, c, &Tally::connect_errors);
          return;
        }
        set_state(conn, Conn::State::kSending);
        conn.out_off = 0;
        continue_send(conn, c);
        return;
      }
      case Conn::State::kSending:
        continue_send(conn, c);
        return;
      case Conn::State::kReading:
        continue_read(conn, c);
        return;
    }
  }

  void continue_read(Conn& conn, std::size_t c) {
    char chunk[16 * 1024];
    bool eof = false;
    while (true) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      finish_error(conn, c, &Tally::read_errors);
      return;
    }

    const server::ResponseHead head = server::parse_response(conn.in);
    if (head.parse == server::ParseStatus::kIncomplete) {
      if (eof) finish_error(conn, c, &Tally::read_errors);
      return;  // need more head bytes
    }
    if (head.parse != server::ParseStatus::kOk) {
      finish_error(conn, c, &Tally::read_errors);
      return;
    }
    if (head.content_length) {
      if (!head.complete(conn.in.size())) {
        if (eof) finish_error(conn, c, &Tally::read_errors);
        return;  // body still arriving
      }
      conn.in.erase(0, head.body_offset + *head.content_length);
      finish_ok(conn, c, head.status, head.close || eof, Clock::now());
      return;
    }
    // Unframed response: complete at EOF (the server is closing).
    if (!eof) return;
    finish_ok(conn, c, head.status, /*server_closes=*/true, Clock::now());
  }

  /// Times out every in-flight request whose deadline passed. O(conns),
  /// called once per loop — the loop iterates at event cadence, so this
  /// stays cheap relative to the I/O it polices.
  void sweep_timeouts(Clock::time_point now) {
    if (now < next_sweep_) return;
    next_sweep_ = now + std::chrono::milliseconds(50);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.state == Conn::State::kIdle || now < conn.deadline) continue;
      finish_error(conn, c,
                   conn.state == Conn::State::kConnecting
                       ? &Tally::connect_errors
                       : &Tally::timeouts);
    }
  }

  /// How long epoll_wait may block: until the next scheduled start or the
  /// next timeout sweep, whichever is sooner.
  int wait_budget_ms(Clock::time_point now) const {
    Clock::time_point until = next_sweep_;
    if (!starts_.empty()) until = std::min(until, starts_.top().first);
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
            .count();
    return static_cast<int>(std::clamp<long long>(ms, 0, 50));
  }

  const Options& options_;
  const std::vector<ScheduledRequest>& schedule_;
  std::vector<Conn> conns_;
  std::size_t stride_;
  int epoll_fd_ = -1;
  sockaddr_in addr_{};
  Clock::time_point start_{};
  Clock::time_point next_sweep_{};
  /// (intended time, connection) of every idle connection's next request.
  using StartEntry = std::pair<Clock::time_point, std::size_t>;
  std::priority_queue<StartEntry, std::vector<StartEntry>,
                      std::greater<StartEntry>>
      starts_;
  std::size_t in_flight_ = 0;
  Tally tally_;
};

}  // namespace

Result run(const Options& options,
           const std::vector<ScheduledRequest>& schedule) {
  Result empty;
  empty.target_rate = options.schedule.rate;
  empty.scheduled = schedule.size();
  if (schedule.empty()) return empty;
  const std::size_t connections = std::max<std::size_t>(
      1, std::min<std::size_t>(options.connections, schedule.size()));
  EpollDriver driver(options, schedule, connections);
  return driver.run();
}

}  // namespace pdcu::loadgen
