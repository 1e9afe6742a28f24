// The connection layer: a dependency-free HTTP/1.1 server over POSIX
// sockets, carried by the sharded epoll reactor (pdcu::net): a few
// event-loop threads multiplex every connection, with keep-alive,
// per-request read timeouts, a concurrent-connection limit (excess
// connections get 503), a zero-copy writev hot path for cached pages, and
// graceful shutdown — stop() stops accepting, lets in-flight responses
// finish, and joins the shards. Malformed requests are answered with 400,
// oversized heads with 431, idle sockets with 408; nothing a client sends
// can crash the process. Lifecycle events land in an optional runtime
// TraceLog.
//
// The served content is an immutable snapshot: a shared_ptr<const Router>
// that each request loads once (RCU-style; the pointer itself is guarded
// by a tiny mutex rather than std::atomic<shared_ptr> — libstdc++ 12's
// _Sp_atomic trips TSan false positives under contention, and the lock is
// held only for the pointer copy, never across a request). swap_router()
// publishes a new snapshot without pausing serving; requests already
// running finish against the snapshot they loaded, and the old router is
// freed when the last such request drops its reference. This is what live
// reload (ReloadManager) builds on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "pdcu/net/metrics.hpp"
#include "pdcu/net/reactor.hpp"
#include "pdcu/runtime/trace.hpp"
#include "pdcu/server/metrics.hpp"
#include "pdcu/server/router.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::obs {
class AccessLog;
}  // namespace pdcu::obs

namespace pdcu::server {

/// The connection engine. The reactor is the only one; the field that
/// selects it stays in ServerOptions because the end-to-end benchmark
/// sets it. Parameterized test ids print the value, so it stays 1.
enum class Backend {
  kReactor = 1,
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;  ///< 0 picks an ephemeral port (see port())
  Backend backend = Backend::kReactor;
  /// Reactor shards (epoll loops with private SO_REUSEPORT listeners).
  /// Size to physical cores serving traffic; 0 means 1.
  unsigned net_shards = 1;
  unsigned max_connections = 128;  ///< concurrent; excess answered with 503
  std::chrono::milliseconds read_timeout{5000};  ///< per request head
  /// How long stop() lets in-flight responses finish before force-closing.
  std::chrono::milliseconds drain_timeout{2000};
  std::size_t max_request_bytes = kDefaultMaxRequestBytes;
  unsigned max_requests_per_connection = 100;  ///< keep-alive cap
  /// Structured JSON access log: one line per parsed request. The pointee
  /// (owned by the caller, e.g. `pdcu serve --access-log`) must outlive
  /// the server; its writer thread keeps file I/O off the request path.
  obs::AccessLog* access_log = nullptr;
};

class HttpServer {
 public:
  explicit HttpServer(Router router, ServerOptions options = {},
                      rt::TraceLog* trace = nullptr);
  ~HttpServer();  ///< stops the server if still running

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds the shard listeners and starts the reactor threads.
  Status start();

  /// Graceful shutdown: stop accepting, finish in-flight responses, join
  /// the shards. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The actually-bound port (useful with options.port == 0). Valid after
  /// a successful start().
  std::uint16_t port() const { return bound_port_; }

  const ServerMetrics& metrics() const { return metrics_; }

  /// Reactor-core counters (accepts by shard, peak connections, writev
  /// stats).
  const net::NetMetrics& net_metrics() const { return net_metrics_; }

  /// The current serving snapshot. Hold the shared_ptr for as long as the
  /// Router is used; a concurrent swap_router() frees replaced snapshots
  /// once their last holder lets go.
  std::shared_ptr<const Router> router() const {
    std::lock_guard lock(router_mutex_);
    return router_;
  }

  /// Atomically replaces the serving snapshot (RCU-style). In-flight
  /// requests finish against the snapshot they already loaded; new
  /// requests see `router`. The server wires its own metrics into the
  /// new router before publishing it. Callable while serving.
  void swap_router(Router router);

  /// Async-signal-safe stop request; run_until_signalled() observes it.
  static void request_stop();

  /// Installs SIGINT/SIGTERM handlers, blocks until a signal (or
  /// request_stop()) arrives, then performs the graceful stop().
  void run_until_signalled();

 private:
  /// The serving snapshot; requests load it once and hold a reference for
  /// the duration of the request (see swap_router()). The mutex guards
  /// only the pointer, never a request.
  mutable std::mutex router_mutex_;
  std::shared_ptr<const Router> router_;
  ServerOptions options_;
  rt::TraceLog* trace_;
  ServerMetrics metrics_;

  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};

  /// The protocol handler and the sharded epoll server it plugs into;
  /// null while stopped.
  net::NetMetrics net_metrics_;
  std::unique_ptr<net::Handler> reactor_handler_;
  std::unique_ptr<net::ReactorServer> reactor_;
};

}  // namespace pdcu::server
