#include "pdcu/loadgen/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "pdcu/loadgen/bench_json.hpp"
#include "pdcu/server/http.hpp"

namespace pdcu::loadgen {

Expected<Reply> fetch_once(const std::string& host, std::uint16_t port,
                           const std::string& target,
                           std::chrono::milliseconds timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::make("loadgen.fetch", "socket failed");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return Error::make("loadgen.fetch", "cannot connect to " + host + ":" +
                                            std::to_string(port));
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return Error::make("loadgen.fetch", "send failed");
  }
  std::string response;
  char chunk[8192];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const server::ResponseHead head = server::parse_response(response);
  const bool framed = head.content_length.has_value();
  if (head.parse != server::ParseStatus::kOk ||
      (framed && !head.complete(response.size()))) {
    return Error::make("loadgen.fetch", "malformed or truncated response to " +
                                            target);
  }
  Reply reply;
  reply.status = head.status;
  reply.body = framed ? response.substr(head.body_offset, *head.content_length)
                      : response.substr(head.body_offset);
  return reply;
}

Expected<std::vector<std::string>> fetch_catalog_slugs(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout) {
  auto reply = fetch_once(host, port, "/api/catalog.json", timeout);
  if (!reply) return reply.error().context("catalog");
  if (reply.value().status != 200) {
    return Error::make("loadgen.catalog",
                       "catalog answered HTTP " +
                           std::to_string(reply.value().status));
  }
  const std::string& body = reply.value().body;
  std::vector<std::string> slugs;
  const std::string needle = "\"slug\":";
  std::size_t at = 0;
  while ((at = body.find(needle, at)) != std::string::npos) {
    at += needle.size();
    while (at < body.size() && (body[at] == ' ' || body[at] == '\t')) ++at;
    if (at >= body.size() || body[at] != '"') continue;
    const auto end = body.find('"', at + 1);
    if (end == std::string::npos) break;
    slugs.push_back(body.substr(at + 1, end - at - 1));
    at = end + 1;
  }
  if (slugs.empty()) {
    return Error::make("loadgen.catalog", "catalog listed no slugs");
  }
  return slugs;
}

Expected<Result> run_against(const Options& options) {
  auto slugs =
      fetch_catalog_slugs(options.host, options.port, options.timeout);
  if (!slugs) return slugs.error();
  const auto schedule = build_schedule(options.schedule, slugs.value());
  if (schedule.empty()) {
    return Error::make("loadgen.schedule",
                       "empty schedule (rate and duration must be > 0)");
  }
  return run(options, schedule);
}

std::string render_result_json(const Result& result, const Options& options) {
  BenchWriter writer("serve", "loadgen");
  writer.number("target_rate", result.target_rate);
  writer.number("achieved_rate", result.achieved_rate);
  writer.number("rps", result.achieved_rate);
  writer.number("duration_s", options.schedule.duration_s);
  writer.number("wall_s", result.wall_s);
  writer.open("requests");
  writer.integer("scheduled", result.scheduled);
  writer.integer("completed", result.completed);
  writer.integer("peak_connections", result.peak_connections);
  writer.close();
  writer.open("latency_us");
  writer.integer("p50", result.latency_us.quantile(0.50));
  writer.integer("p90", result.latency_us.quantile(0.90));
  writer.integer("p95", result.latency_us.quantile(0.95));
  writer.integer("p99", result.latency_us.quantile(0.99));
  writer.integer("p999", result.latency_us.quantile(0.999));
  writer.number("mean", result.latency_us.mean());
  writer.integer("max", result.max_latency_us);
  writer.close();
  writer.open("status");
  writer.integer("2xx", result.status_2xx);
  writer.integer("3xx", result.status_3xx);
  writer.integer("4xx", result.status_4xx);
  writer.integer("5xx", result.status_5xx);
  writer.close();
  writer.open("errors");
  writer.integer("connect", result.connect_errors);
  writer.integer("send", result.send_errors);
  writer.integer("read", result.read_errors);
  writer.integer("timeout", result.timeouts);
  // The roll-up a reader actually checks: without it, a run where the
  // server died mid-schedule still *looked* clean to anyone comparing
  // requests.completed against latency percentiles — the refused and
  // mid-body-disconnected requests vanished from the summary.
  writer.integer("total", result.errors_total());
  writer.close();
  writer.open("config");
  writer.text("host", options.host);
  writer.integer("connections", options.connections);
  writer.integer("seed", options.schedule.seed);
  writer.number("zipf_exponent", options.schedule.zipf_exponent);
  writer.number("keep_alive_ratio", options.schedule.keep_alive_ratio);
  writer.text("mix", render_mix(options.schedule.mix.empty()
                                    ? default_mix()
                                    : options.schedule.mix));
  writer.close();
  return writer.finish();
}

}  // namespace pdcu::loadgen
