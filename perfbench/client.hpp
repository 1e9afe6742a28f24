// The benchmark's own open-loop HTTP/1.1 client. Each connection has one
// thread that owns every `connections`-th request of the schedule, sleeps
// until the request is due, sends it, and reads the reply. Latency is
// charged from the intended send time, so a stall that delays later
// requests is counted against them (no coordinated omission), and the
// generator's own lateness is recorded beside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "schedule.hpp"
#include "trace.hpp"

namespace perfbench {

/// One parsed reply, valid only during the check callback.
struct Reply {
  int status = 0;
  std::string_view etag;
  std::string_view body;
};

/// Returns false when the reply is wrong for the request; that request then
/// counts as failed. Called on the connection's thread.
using Check = std::function<bool(std::size_t index, const Planned& request,
                                 const Reply& reply)>;

/// Supplies the extra header lines (each ending in CRLF) of a request, e.g.
/// If-None-Match for conditional GETs. Called on the connection's thread.
using ExtraHeaders = std::function<std::string(const Planned& request)>;

struct ClientOptions {
  std::uint16_t port = 0;
  unsigned connections = 2;  ///< one thread per connection
  unsigned timeout_ms = 2000;
  /// Start of the phase on the monotonic clock; 0 means "shortly after the
  /// call", once every connection thread is ready.
  std::uint64_t start_ns = 0;
  /// When set, every request leaves a root span and its connect, send,
  /// wait and read children here (recorded inline: this is the traced run).
  SpanLog* spans = nullptr;
};

/// What happened to one scheduled request. All times are monotonic ns.
struct Sample {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;   ///< request bytes handed to the kernel
  std::uint64_t first_ns = 0;  ///< first reply byte received
  std::uint64_t done_ns = 0;   ///< whole reply received
  std::uint64_t connect_ns = 0;  ///< time spent connecting (0 if reused)
  int status = 0;
  bool ok = false;
};

struct ClientRun {
  std::vector<Sample> samples;  ///< schedule order
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;  ///< stale keep-alive connections retried
  std::uint64_t connects = 0;
  std::uint64_t replies = 0;  ///< requests answered or failed
  /// Closed loop: when each reply completed, in no particular order.
  std::vector<std::uint64_t> completions;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Runs `schedule` open loop against 127.0.0.1:options.port.
ClientRun run_open_loop(const std::vector<Planned>& schedule,
                        const ClientOptions& options, const Check& check,
                        const ExtraHeaders& extra = {});

/// Closed loop for `seconds`: every connection sends its share of
/// `schedule` back to back, ignoring due times and cycling through it, so
/// replies / (end - start) is the request rate the server sustains with
/// that many connections. `samples` holds only the last pass.
ClientRun run_closed_loop(const std::vector<Planned>& schedule,
                          const ClientOptions& options, double seconds,
                          const Check& check, const ExtraHeaders& extra = {});

/// One reply of Connection::get.
struct Fetch {
  int status = 0;  ///< 0 on a transport error
  std::string body;
};

/// A keep-alive connection for one-at-a-time GETs outside the load phases
/// (the editor's visibility checks).
class Connection {
 public:
  explicit Connection(std::uint16_t port) : port_(port) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// GET `target`, reconnecting as needed.
  Fetch get(const std::string& target);

 private:
  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Latency of each sample in microseconds from its due time; failed
/// requests count as infinitely slow, so they miss every limit.
std::vector<double> latencies_us(const ClientRun& run);

/// Generator lateness (send time minus due time) of each sample, in us.
std::vector<double> lateness_us(const ClientRun& run);

}  // namespace perfbench
