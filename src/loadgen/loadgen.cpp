#include "pdcu/loadgen/loadgen.hpp"

#include "pdcu/loadgen/bench_json.hpp"

namespace pdcu::loadgen {

Expected<Reply> fetch_once(const std::string& host, std::uint16_t port,
                           const std::string& target,
                           std::chrono::milliseconds timeout) {
  using server::ClientExchange;
  const auto deadline = ClientExchange::Clock::now() + timeout;
  ClientExchange exchange(
      server::get_request(host, target, {{"Connection", "close"}}), host,
      port, deadline, deadline);
  if (server::poll_until_done(exchange) != ClientExchange::Want::kDone) {
    return Error::make("loadgen.fetch", "GET " + target + " from " + host +
                                            ":" + std::to_string(port) +
                                            ": " + exchange.detail());
  }
  return std::move(exchange.reply());
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
