#include "pdcu/server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "pdcu/obs/access_log.hpp"
#include "pdcu/server/reactor_backend.hpp"

namespace pdcu::server {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void on_stop_signal(int) { g_stop_requested = 1; }

/// Writes all of `data`, riding out EINTR and short writes uniformly (a
/// short send is just a smaller next iteration, never an error). A hard
/// failure — EPIPE or ECONNRESET from a peer that hung up mid-response —
/// is counted into pdcu_write_errors_total so dead-peer writes are
/// observable instead of silently folded into "sent".
bool send_all(int fd, std::string_view data, ServerMetrics* metrics) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (metrics != nullptr) metrics->record_write_error();
      return false;
    }
    if (n == 0) {  // should not happen on a stream socket; treat as dead
      if (metrics != nullptr) metrics->record_write_error();
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Canned close-the-connection error answer (400/408/431/503) on the wire.
std::string error_wire(int status) { return serialize(error_response(status)); }

}  // namespace

HttpServer::HttpServer(Router router, ServerOptions options,
                       rt::TraceLog* trace)
    : options_(std::move(options)), trace_(trace) {
  swap_router(std::move(router));
}

void HttpServer::swap_router(Router router) {
  // Wire the server's counters in before the snapshot becomes visible to
  // any request thread; once published the Router is only ever read
  // (handle() is const), so requests never contend beyond the pointer
  // copy in router().
  router.set_metrics(&metrics_);
  if (options_.backend == Backend::kReactor) {
    router.set_net_metrics(&net_metrics_);
  }
  std::shared_ptr<const Router> snapshot =
      std::make_shared<const Router>(std::move(router));
  {
    std::lock_guard lock(router_mutex_);
    router_.swap(snapshot);
  }
  // `snapshot` now holds the replaced router. If this was its last
  // reference it is freed here, after the unlock, so router() callers on
  // the request path never wait for a whole snapshot to be torn down.
}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  if (running_.load()) {
    return Error::make("server.start", "server is already running");
  }
  if (options_.backend == Backend::kReactor) return start_reactor();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Error::make("server.socket", std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Error::make("server.host", "not an IPv4 address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0) {
    const Error error = Error::make("server.bind", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return error;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Error error = Error::make("server.listen", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return error;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  if (options_.threads == 0) {
    pool_ = &rt::default_pool();
  } else {
    owned_pool_ = std::make_unique<rt::ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });

  if (trace_ != nullptr) {
    const std::shared_ptr<const Router> snapshot = router();
    trace_->narrate("server: listening on " + options_.host + ":" +
                    std::to_string(bound_port_) + " with " +
                    std::to_string(pool_->size()) + " workers, " +
                    std::to_string(snapshot->cache().size()) +
                    " cached pages (" +
                    std::to_string(snapshot->cache().total_bytes()) +
                    " bytes)");
  }
  return Status::ok();
}

Status HttpServer::start_reactor() {
  reactor_handler_ = make_reactor_handler(options_, metrics_,
                                          [this] { return router(); });
  net::ReactorOptions net_options;
  net_options.host = options_.host;
  net_options.port = options_.port;
  net_options.shards = options_.net_shards == 0 ? 1 : options_.net_shards;
  net_options.max_connections = options_.max_connections;
  net_options.read_timeout = options_.read_timeout;
  net_options.max_requests_per_connection =
      options_.max_requests_per_connection;
  net_options.drain_timeout = options_.drain_timeout;
  // The net-layer buffer cap is a backstop behind the handler's 431
  // (which fires at max_request_bytes); keep it comfortably above so the
  // polite response always wins over a silent close.
  net_options.max_buffer_bytes =
      std::max<std::size_t>(options_.max_request_bytes * 2, 64 * 1024);
  net_options.metrics = &net_metrics_;
  reactor_ =
      std::make_unique<net::ReactorServer>(net_options, *reactor_handler_);
  if (const Status status = reactor_->start(); !status) {
    reactor_.reset();
    reactor_handler_.reset();
    return status;
  }
  bound_port_ = reactor_->port();
  running_.store(true, std::memory_order_release);

  if (trace_ != nullptr) {
    const std::shared_ptr<const Router> snapshot = router();
    trace_->narrate("server: listening on " + options_.host + ":" +
                    std::to_string(bound_port_) + " with " +
                    std::to_string(net_options.shards) +
                    " reactor shards, " +
                    std::to_string(snapshot->cache().size()) +
                    " cached pages (" +
                    std::to_string(snapshot->cache().total_bytes()) +
                    " bytes)");
  }
  return Status::ok();
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (reactor_ != nullptr) {
    reactor_->stop();  // graceful drain, then joins the shard threads
    reactor_.reset();
    reactor_handler_.reset();
    if (trace_ != nullptr) {
      trace_->narrate("server: stopped after " +
                      std::to_string(metrics_.requests_total()) +
                      " requests (" +
                      std::to_string(metrics_.bytes_sent_total()) +
                      " bytes sent)");
    }
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain in-flight connections. The pool may be the shared default pool,
  // so it cannot be torn down to force the drain; handle_connection exits
  // promptly once running_ is false, and the counter reaches zero only
  // after every submitted connection task has finished.
  while (active_connections_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  owned_pool_.reset();
  pool_ = nullptr;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (trace_ != nullptr) {
    trace_->narrate("server: stopped after " +
                    std::to_string(metrics_.requests_total()) + " requests (" +
                    std::to_string(metrics_.bytes_sent_total()) +
                    " bytes sent)");
  }
}

void HttpServer::request_stop() { g_stop_requested = 1; }

void HttpServer::run_until_signalled() {
  g_stop_requested = 0;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  while (running_.load(std::memory_order_acquire) && g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (trace_ != nullptr && g_stop_requested != 0) {
    trace_->narrate("server: received shutdown signal");
  }
  stop();
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd waiter{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&waiter, 1, 100);
    if (!running_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      const std::string wire = error_wire(503);
      send_all(fd, wire, &metrics_);
      metrics_.record(Route::kOther, 503, wire.size(),
                      std::chrono::microseconds{0});
      ::close(fd);
      continue;
    }

    active_connections_.fetch_add(1, std::memory_order_relaxed);
    pool_->submit([this, fd] {
      handle_connection(fd);
      // Release pairs with the acquire drain loop in stop(): once the
      // counter reads zero there, every connection's effects are visible.
      active_connections_.fetch_sub(1, std::memory_order_release);
    });
  }
}

void HttpServer::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  unsigned served = 0;
  bool open = true;

  while (open && running_.load(std::memory_order_acquire)) {
    // Read one request head, polling in short slices so the per-request
    // read timeout is enforced and stop() is noticed promptly.
    ParseResult parsed = parse_request(buffer, options_.max_request_bytes);
    const auto deadline =
        std::chrono::steady_clock::now() + options_.read_timeout;
    while (parsed.status == ParseStatus::kIncomplete) {
      if (!running_.load(std::memory_order_acquire)) {
        open = false;
        break;
      }
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        // The peer started a request but never finished it.
        if (!buffer.empty()) {
          const std::string wire = error_wire(408);
          send_all(fd, wire, &metrics_);
          metrics_.record(Route::kOther, 408, wire.size(),
                          std::chrono::microseconds{0});
        }
        open = false;
        break;
      }
      pollfd waiter{fd, POLLIN, 0};
      const int slice =
          static_cast<int>(std::min<std::int64_t>(remaining.count(), 100));
      const int ready = ::poll(&waiter, 1, slice);
      if (ready < 0 && errno != EINTR) {
        open = false;
        break;
      }
      if (ready <= 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {  // peer closed (or hard error) mid-request
        open = false;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      parsed = parse_request(buffer, options_.max_request_bytes);
    }
    if (!open) break;

    if (parsed.status == ParseStatus::kBad ||
        parsed.status == ParseStatus::kTooLarge) {
      const int status = parsed.status == ParseStatus::kBad ? 400 : 431;
      const std::string wire = error_wire(status);
      send_all(fd, wire, &metrics_);
      metrics_.record(Route::kOther, status, wire.size(),
                      std::chrono::microseconds{0});
      break;
    }

    const auto handle_start = std::chrono::steady_clock::now();
    // One snapshot per request: a reload that lands mid-request swaps the
    // next request onto the new site, never this one mid-flight.
    const std::shared_ptr<const Router> snapshot = router();
    Response response = snapshot->handle(parsed.request);
    ++served;

    // Request bodies are never routed, so a request that carries one
    // (unexpected for GET/HEAD) poisons keep-alive framing: answer, then
    // close instead of misreading body bytes as the next request.
    const std::string* content_length =
        parsed.request.header("content-length");
    const bool has_body =
        content_length != nullptr && *content_length != "0";
    const bool close_after =
        !parsed.request.keep_alive() || has_body ||
        served >= options_.max_requests_per_connection ||
        !running_.load(std::memory_order_acquire);
    response.set("Connection", close_after ? "close" : "keep-alive");

    const std::string wire =
        serialize(response, parsed.request.method == "HEAD");
    open = send_all(fd, wire, &metrics_) && !close_after;
    const Route route = route_for_path(parsed.request.path());
    const auto latency =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - handle_start);
    metrics_.record(route, response.status, wire.size(), latency);
    if (options_.access_log != nullptr) {
      obs::AccessEntry entry;
      entry.time = std::chrono::system_clock::now();
      entry.method = parsed.request.method;
      entry.target = parsed.request.target;
      entry.status = response.status;
      entry.bytes = wire.size();
      entry.latency_us = static_cast<std::uint64_t>(latency.count());
      entry.route = std::string(route_label(route));
      options_.access_log->log(std::move(entry));
    }
    buffer.erase(0, parsed.consumed);
  }
  ::close(fd);
}

}  // namespace pdcu::server
