#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <limits>
#include <thread>

#include "stats.hpp"

namespace perfbench {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto lower = [](char c) {
      return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    };
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

int connect_local(std::uint16_t port, unsigned timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Closes a connected socket with a reset rather than a FIN. The benchmark
/// opens thousands of connections a second from one address; closed
/// normally, each left a client-side TIME_WAIT socket for a minute, and as
/// that table filled up connect() slowed down over a run and from one run
/// to the next.
void close_reset(int fd) {
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(fd);
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// The parsed framing of one reply held in a connection buffer.
struct Framed {
  Reply reply;
  bool close = false;
  std::size_t received = 0;  ///< bytes read before success or failure
  std::uint64_t first_ns = 0;
};

/// Reads one whole reply into `buffer`. False on EOF, error or timeout.
bool read_reply(int fd, std::string& buffer, Framed& out) {
  buffer.clear();
  std::size_t head_end = std::string::npos;
  std::size_t need = std::numeric_limits<std::size_t>::max();
  char chunk[64 * 1024];
  while (buffer.size() < need) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (out.first_ns == 0) out.first_ns = now_ns();
    buffer.append(chunk, static_cast<std::size_t>(n));
    out.received = buffer.size();
    if (head_end != std::string::npos) continue;
    head_end = buffer.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;

    const std::string_view head(buffer.data(), head_end);
    std::size_t line_end = head.find("\r\n");
    const std::string_view status_line = head.substr(0, line_end);
    if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
      return false;
    }
    out.reply.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
    std::size_t content_length = 0;
    while (line_end != std::string_view::npos) {
      const std::size_t start = line_end + 2;
      line_end = head.find("\r\n", start);
      const std::string_view line = head.substr(
          start, line_end == std::string_view::npos ? head.size() - start
                                                    : line_end - start);
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      const std::string_view name = line.substr(0, colon);
      const std::string_view value = trim(line.substr(colon + 1));
      if (iequals(name, "content-length")) {
        content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
      } else if (iequals(name, "connection")) {
        out.close = iequals(value, "close");
      } else if (iequals(name, "etag")) {
        out.reply.etag = value;
      }
    }
    need = head_end + 4 + content_length;
  }
  out.reply.body = std::string_view(buffer).substr(head_end + 4);
  return true;
}

std::string request_bytes(const std::string& target, const std::string& extra) {
  std::string bytes = "GET ";
  bytes += target;
  bytes += " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  bytes += extra;
  bytes += "\r\n";
  return bytes;
}

/// What one request-reply exchange cost and how it ended.
struct Exchange {
  bool ok = false;
  bool retried = false;  ///< a stale kept-alive connection was retried
  unsigned connects = 0;
  std::uint64_t connect_ns = 0;  ///< time spent connecting
  std::uint64_t sent_ns = 0;     ///< last send of the request bytes
};

/// Sends `bytes` on `fd`, connecting first when it is -1, and reads one
/// reply into `buffer` and `framed`. A kept-alive connection the server
/// already closed fails before any reply byte; an HTTP client retries that
/// GET once on a new connection. Leaves `fd` at -1 after a failure or a
/// reply that closes the connection.
Exchange exchange(int& fd, std::uint16_t port, unsigned timeout_ms,
                  std::string_view bytes, std::string& buffer, Framed& framed) {
  Exchange out;
  for (int attempt = 0; attempt < 2 && !out.ok; ++attempt) {
    const bool reused = fd >= 0;
    if (!reused) {
      const std::uint64_t before = now_ns();
      fd = connect_local(port, timeout_ms);
      out.connect_ns += now_ns() - before;
      ++out.connects;
      if (fd < 0) break;
    }
    framed = Framed{};
    out.sent_ns = now_ns();
    out.ok = send_all(fd, bytes) && read_reply(fd, buffer, framed);
    if (!out.ok) {
      close_reset(fd);
      fd = -1;
      if (!reused || framed.received > 0) break;
      out.retried = true;
    }
  }
  if ((!out.ok || framed.close) && fd >= 0) {
    close_reset(fd);
    fd = -1;
  }
  return out;
}

void sleep_until_ns(std::uint64_t due) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(due % 1'000'000'000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

struct Worker {
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t connects = 0;
  std::uint64_t replies = 0;
  std::vector<std::uint64_t> completions;  ///< closed loop only
};

/// Open loop when `until` is 0: each request waits for its due time. Closed
/// loop otherwise: requests go back to back, cycling through this
/// connection's share of the schedule, until the monotonic time `until`.
void run_connection(const std::vector<Planned>& schedule,
                    const ClientOptions& options, std::uint64_t start,
                    std::uint64_t until, unsigned first, const Check& check,
                    const ExtraHeaders& extra, std::vector<Sample>& samples,
                    Worker& worker) {
  if (first >= schedule.size()) return;
  // Wake-ups within a microsecond instead of the default 50 us slack, so
  // generator lateness reflects the system, not the timer.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  int fd = -1;
  std::string buffer;
  buffer.reserve(256 * 1024);
  std::vector<Span> spans;
  const auto span = [&spans](const char* name, std::uint64_t parent,
                             std::uint64_t start, std::uint64_t end) {
    spans.push_back({name, spans.size() + 1, parent, start, end});
    return spans.size();
  };
  const bool closed = until != 0;
  for (std::size_t i = first; closed ? now_ns() < until : i < schedule.size();
       i += options.connections) {
    if (i >= schedule.size()) i = first;
    const Planned& request = schedule[i];
    Sample& sample = samples[i];
    sample = Sample{};
    if (closed) {
      sample.due_ns = now_ns();
    } else {
      sample.due_ns = start + request.due_ns;
      sleep_until_ns(sample.due_ns);
    }
    if (request.fresh && fd >= 0) {
      close_reset(fd);
      fd = -1;
    }
    const std::string bytes =
        request_bytes(request.target, extra ? extra(request) : std::string());
    Framed framed;
    const Exchange sent =
        exchange(fd, options.port, options.timeout_ms, bytes, buffer, framed);
    sample.done_ns = now_ns();
    sample.sent_ns = sent.sent_ns;
    sample.connect_ns = sent.connect_ns;
    sample.first_ns = framed.first_ns;
    sample.status = framed.reply.status;
    sample.ok = sent.ok && check(i, request, framed.reply);
    worker.connects += sent.connects;
    worker.retries += sent.retried ? 1 : 0;
    ++worker.replies;
    if (closed) worker.completions.push_back(sample.done_ns);
    if (!sample.ok) ++worker.failed;
    if (options.spans != nullptr && sample.sent_ns != 0) {
      const std::uint64_t root =
          span("client.request", 0, sample.due_ns, sample.done_ns);
      if (sample.connect_ns > 0) {
        span("client.connect", root, sample.sent_ns - sample.connect_ns,
             sample.sent_ns);
      }
      const std::uint64_t first =
          sample.first_ns != 0 ? sample.first_ns : sample.done_ns;
      span("client.wait", root, sample.sent_ns, first);
      span("client.read", root, first, sample.done_ns);
    }
  }
  if (fd >= 0) close_reset(fd);
  if (options.spans != nullptr) options.spans->merge(spans);
}

}  // namespace

namespace {

ClientRun run(const std::vector<Planned>& schedule, ClientOptions options,
              double closed_seconds, const Check& check,
              const ExtraHeaders& extra) {
  ClientRun run;
  run.samples.resize(schedule.size());
  run.start_ns =
      options.start_ns != 0 ? options.start_ns : now_ns() + 20'000'000ULL;
  const std::uint64_t until =
      closed_seconds > 0.0
          ? run.start_ns + static_cast<std::uint64_t>(closed_seconds * 1e9)
          : 0;
  options.connections = std::max(1u, options.connections);
  std::vector<Worker> workers(options.connections);
  std::vector<std::thread> threads;
  threads.reserve(options.connections);
  for (unsigned c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      sleep_until_ns(run.start_ns);
      run_connection(schedule, options, run.start_ns, until, c, check, extra,
                     run.samples, workers[c]);
    });
  }
  for (auto& thread : threads) thread.join();
  run.end_ns = now_ns();
  for (const auto& worker : workers) {
    run.failed += worker.failed;
    run.retries += worker.retries;
    run.connects += worker.connects;
    run.replies += worker.replies;
    run.completions.insert(run.completions.end(), worker.completions.begin(),
                           worker.completions.end());
  }
  return run;
}

}  // namespace

ClientRun run_open_loop(const std::vector<Planned>& schedule,
                        const ClientOptions& options, const Check& check,
                        const ExtraHeaders& extra) {
  return run(schedule, options, 0.0, check, extra);
}

ClientRun run_closed_loop(const std::vector<Planned>& schedule,
                          const ClientOptions& options, double seconds,
                          const Check& check, const ExtraHeaders& extra) {
  return run(schedule, options, seconds, check, extra);
}

Connection::~Connection() {
  if (fd_ >= 0) close_reset(fd_);
}

Fetch Connection::get(const std::string& target) {
  constexpr unsigned kTimeoutMs = 2000;
  Fetch out;
  Framed framed;
  if (exchange(fd_, port_, kTimeoutMs, request_bytes(target, {}), buffer_,
               framed)
          .ok) {
    out.status = framed.reply.status;
    out.body = std::string(framed.reply.body);
  }
  return out;
}

std::vector<double> latencies_us(const ClientRun& run) {
  std::vector<double> out;
  out.reserve(run.samples.size());
  for (const auto& s : run.samples) {
    out.push_back(s.ok ? static_cast<double>(s.done_ns - s.due_ns) / 1e3
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> lateness_us(const ClientRun& run) {
  std::vector<double> out;
  out.reserve(run.samples.size());
  for (const auto& s : run.samples) {
    out.push_back(s.sent_ns > s.due_ns
                      ? static_cast<double>(s.sent_ns - s.due_ns) / 1e3
                      : 0.0);
  }
  return out;
}

}  // namespace perfbench
