// The load generator's client: one thread multiplexing every configured
// connection over epoll (see loadgen.hpp for the schedule semantics). Each
// busy connection steps one server::ClientExchange, which owns the
// connect, write, read, framing and deadline of its request; this driver
// owns the schedule, the epoll registrations and the tally.
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "pdcu/loadgen/loadgen.hpp"
#include "pdcu/server/client.hpp"

namespace pdcu::loadgen {

namespace {

using Clock = std::chrono::steady_clock;
using server::ClientExchange;
using Want = ClientExchange::Want;

/// One connection walking its slice of the schedule.
struct Conn {
  std::size_t cursor = 0;  ///< how many of this conn's slice are finished
  Clock::time_point intended;  ///< in-flight request's scheduled send time
  /// The request in flight; empty between requests.
  std::optional<ClientExchange> exchange;
  /// The socket registered with epoll: the exchange's, or between requests
  /// a kept-alive one parked with no interest. -1 when there is none.
  int watched = -1;
  std::uint32_t interest = 0;
};

class EpollDriver {
 public:
  EpollDriver(const Options& options,
              const std::vector<ScheduledRequest>& schedule,
              std::size_t connections, Result empty)
      : options_(options),
        schedule_(schedule),
        conns_(connections),
        stride_(connections),
        result_(std::move(empty)) {}

  Result run() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return result_;

    start_ = last_response_ = Clock::now() + std::chrono::milliseconds(20);
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
        on_event(static_cast<std::size_t>(
            events[static_cast<std::size_t>(i)].data.u64));
      }
    }

    for (Conn& conn : conns_) close_parked(conn);
    ::close(epoll_fd_);

    result_.latency_us = latency_us_.snapshot();
    result_.wall_s =
        std::chrono::duration<double>(last_response_ - start_).count();
    if (result_.wall_s > 0.0) {
      result_.achieved_rate =
          static_cast<double>(result_.completed) / result_.wall_s;
    }
    return result_;
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
      begin_request(c, now);
    }
  }

  void begin_request(std::size_t c, Clock::time_point now) {
    Conn& conn = conns_[c];
    const ScheduledRequest& request = schedule_[slice_index(c, conn.cursor)];
    conn.intended = intended_at(c, conn.cursor);
    // The timeout is an I/O bound, so it runs from actual initiation, not
    // the intended time — a late start (CO backlog) inflates latency, not
    // the error counts.
    const Clock::time_point deadline = now + options_.timeout;
    if (request.fresh_connection) close_parked(conn);

    std::string bytes = server::get_request(options_.host, request.target,
                                            {{"User-Agent", "pdcu-loadgen"}});
    if (conn.watched >= 0) {
      conn.exchange.emplace(std::move(bytes), conn.watched, deadline);
    } else {
      conn.exchange.emplace(std::move(bytes), options_.host, options_.port,
                            deadline, deadline);
    }
    ++in_flight_;
    drive(c, false, now);
  }

  /// Steps connection `c`'s exchange, then follows its socket in epoll, or
  /// books the outcome and queues the connection's next request.
  void drive(std::size_t c, bool ready, Clock::time_point now) {
    Conn& conn = conns_[c];
    const Want want = conn.exchange->step(ready, now);
    if (want == Want::kWrite || want == Want::kRead) {
      watch(conn, c, conn.exchange->fd(),
            want == Want::kWrite ? EPOLLOUT : EPOLLIN);
      return;
    }
    if (want == Want::kDone) {
      finish_ok(conn, conn.exchange->reply());
    } else {
      ++(result_.*error_counter(conn.exchange->failure()));
    }
    // A kept socket stays registered, parked with no interest until the
    // next request; any other the exchange has closed, which drops it
    // from epoll.
    const int kept = conn.exchange->release();
    if (kept >= 0) {
      watch(conn, c, kept, 0);
    } else if (conn.watched >= 0) {
      conn.watched = -1;
      --open_now_;
    }
    conn.exchange.reset();
    --in_flight_;
    if (slice_index(c, ++conn.cursor) < schedule_.size()) {
      starts_.push({intended_at(c, conn.cursor), c});
    }
  }

  static std::uint64_t Result::*error_counter(
      ClientExchange::Failure failure) {
    switch (failure) {
      case ClientExchange::Failure::kSend:
        return &Result::send_errors;
      case ClientExchange::Failure::kRead:
        return &Result::read_errors;
      case ClientExchange::Failure::kTimeout:
        return &Result::timeouts;
      default:  // connect, connect_timeout, local: no request went out
        return &Result::connect_errors;
    }
  }

  /// Sets connection `c`'s interest in `fd`, registering a freshly
  /// connected socket.
  void watch(Conn& conn, std::size_t c, int fd, std::uint32_t interest) {
    if (fd == conn.watched && interest == conn.interest) return;
    epoll_event ev{};
    ev.events = interest;
    ev.data.u64 = c;
    if (fd == conn.watched) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    } else {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
      conn.watched = fd;
      ++open_now_;
      result_.peak_connections =
          std::max(result_.peak_connections, open_now_);
    }
    conn.interest = interest;
  }

  /// Closes the connection's parked keep-alive socket, if it has one.
  void close_parked(Conn& conn) {
    if (conn.exchange || conn.watched < 0) return;
    ::close(conn.watched);
    conn.watched = -1;
    --open_now_;
  }

  void finish_ok(Conn& conn, const server::ClientReply& reply) {
    const Clock::time_point now = Clock::now();
    const auto latency = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - conn.intended)
            .count());
    latency_us_.record(latency);
    result_.max_latency_us = std::max(result_.max_latency_us, latency);
    ++result_.completed;
    last_response_ = std::max(last_response_, now);
    if (reply.status >= 200 && reply.status < 300) {
      ++result_.status_2xx;
    } else if (reply.status < 400) {
      ++result_.status_3xx;
    } else if (reply.status < 500) {
      ++result_.status_4xx;
    } else {
      ++result_.status_5xx;
    }
  }

  void on_event(std::size_t c) {
    Conn& conn = conns_[c];
    // A parked socket reports only an error or a hangup: it cannot carry
    // the next request, so the next one connects afresh.
    if (!conn.exchange) return close_parked(conn);
    drive(c, true, Clock::now());
  }

  /// Lets every in-flight exchange check its deadline. O(conns), called
  /// at most every 50 ms; a step that is not ready makes no system call.
  void sweep_timeouts(Clock::time_point now) {
    if (now < next_sweep_) return;
    next_sweep_ = now + std::chrono::milliseconds(50);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].exchange) drive(c, false, now);
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
  Clock::time_point start_{};
  Clock::time_point next_sweep_{};
  /// (intended time, connection) of every idle connection's next request.
  using StartEntry = std::pair<Clock::time_point, std::size_t>;
  std::priority_queue<StartEntry, std::vector<StartEntry>,
                      std::greater<StartEntry>>
      starts_;
  /// Connections with an exchange in flight.
  std::size_t in_flight_ = 0;
  std::uint64_t open_now_ = 0;
  Clock::time_point last_response_{};
  obs::Histogram latency_us_;
  Result result_;
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
  return EpollDriver(options, schedule, connections, empty).run();
}

}  // namespace pdcu::loadgen
