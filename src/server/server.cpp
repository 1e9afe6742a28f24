#include "pdcu/server/server.hpp"

#include <algorithm>
#include <csignal>
#include <thread>

#include "pdcu/server/reactor_backend.hpp"

namespace pdcu::server {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void on_stop_signal(int) { g_stop_requested = 1; }

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
  router.set_net_metrics(&net_metrics_);
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
  reactor_->stop();  // graceful drain, then joins the shard threads
  reactor_.reset();
  reactor_handler_.reset();
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

}  // namespace pdcu::server
