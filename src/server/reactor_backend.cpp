#include "pdcu/server/reactor_backend.hpp"

#include <chrono>
#include <string_view>
#include <utility>

#include "pdcu/obs/access_log.hpp"
#include "pdcu/server/http.hpp"
#include "pdcu/server/server.hpp"

namespace pdcu::server {

namespace {

// The Connection header is the only part of a cached answer that varies
// per request, so it travels as the writev middle segment; both variants
// are static and the blank line ending the head rides along.
constexpr std::string_view kKeepAliveTail = "Connection: keep-alive\r\n\r\n";
constexpr std::string_view kCloseTail = "Connection: close\r\n\r\n";

class ReactorHandler final : public net::Handler {
 public:
  ReactorHandler(const ServerOptions& options, ServerMetrics& metrics,
                 std::function<std::shared_ptr<const Router>()> router)
      : options_(options), metrics_(metrics), router_(std::move(router)) {}

  net::Step on_data(std::string_view buffer, bool force_close,
                    net::WireResponse& out) override {
    ParseResult parsed = parse_request(buffer, options_.max_request_bytes);
    if (parsed.status == ParseStatus::kIncomplete) {
      return {net::StepStatus::kNeedMore, 0};
    }
    if (parsed.status == ParseStatus::kBad ||
        parsed.status == ParseStatus::kTooLarge) {
      const int status = parsed.status == ParseStatus::kBad ? 400 : 431;
      out.owned_head = serialize(error_response(status));
      out.head = out.owned_head;
      out.close = true;
      out.status = status;
      metrics_.record(Route::kOther, status, out.owned_head.size(),
                      std::chrono::microseconds{0});
      // Nothing consumed: the buffer is poisoned and the connection is
      // closing; there is no next request to find in it.
      return {net::StepStatus::kRespond, 0};
    }

    const auto handle_start = std::chrono::steady_clock::now();
    // One snapshot per request: a reload that lands mid-request swaps the
    // next request onto the new site.
    std::shared_ptr<const Router> snapshot = router_();

    // A request body would poison keep-alive framing, so answer and close
    // rather than misread body bytes as the next request head.
    const bool close_after = !parsed.request.keep_alive() ||
                             parsed.request.has_body() || force_close;
    const bool head_only = parsed.request.method == "HEAD";

    int status = 0;
    if (const auto fast = snapshot->try_fast(parsed.request)) {
      out.head = fast->head;
      out.tail = close_after ? kCloseTail : kKeepAliveTail;
      out.body = fast->body;
      out.guard = std::move(snapshot);  // keeps the views alive to last byte
      status = fast->status;
    } else {
      Response response = snapshot->handle(parsed.request);
      response.set("Connection", close_after ? "close" : "keep-alive");
      out.owned_head = serialize(response, head_only);
      out.head = out.owned_head;
      status = response.status;
    }
    out.close = close_after;
    out.status = status;

    const Route route = route_for_path(parsed.request.path());
    const auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - handle_start);
    metrics_.record(route, status, out.wire_bytes(), latency);
    if (options_.access_log != nullptr) {
      obs::AccessEntry entry;
      entry.time = std::chrono::system_clock::now();
      entry.method = parsed.request.method;
      entry.target = parsed.request.target;
      entry.status = status;
      entry.bytes = out.wire_bytes();
      entry.latency_us = static_cast<std::uint64_t>(latency.count());
      entry.route = std::string(route_label(route));
      options_.access_log->log(std::move(entry));
    }
    return {net::StepStatus::kRespond, parsed.consumed};
  }

  std::string timeout_response() const override {
    return serialize(error_response(408));
  }

  std::string overload_response() const override {
    return serialize(error_response(503));
  }

  void on_connection_error(int status, std::size_t bytes) override {
    metrics_.record(Route::kOther, status, bytes,
                    std::chrono::microseconds{0});
  }

  void on_write_error() override { metrics_.record_write_error(); }

 private:
  const ServerOptions& options_;
  ServerMetrics& metrics_;
  std::function<std::shared_ptr<const Router>()> router_;
};

}  // namespace

std::unique_ptr<net::Handler> make_reactor_handler(
    const ServerOptions& options, ServerMetrics& metrics,
    std::function<std::shared_ptr<const Router>()> router) {
  return std::make_unique<ReactorHandler>(options, metrics,
                                          std::move(router));
}

}  // namespace pdcu::server
