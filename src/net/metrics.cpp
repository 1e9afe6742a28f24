#include "pdcu/net/metrics.hpp"

#include <algorithm>

#include "pdcu/obs/exposition.hpp"

namespace pdcu::net {

void NetMetrics::set_shard_count(std::size_t shards) {
  shards_.store(std::min(shards, kMaxShards), std::memory_order_relaxed);
}

void NetMetrics::record_accept(std::size_t shard) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (shard < kMaxShards) {
    by_shard_[shard].fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t now =
      active_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

std::uint64_t NetMetrics::accepted_by_shard(std::size_t shard) const {
  if (shard >= kMaxShards) return 0;
  return by_shard_[shard].load(std::memory_order_relaxed);
}

std::string NetMetrics::render_text() const {
  obs::Exposition out;
  out.family("pdcu_net_accepted_total", obs::Exposition::Type::kCounter,
             "Connections accepted, by reactor shard.");
  const std::size_t shards = shard_count();
  for (std::size_t shard = 0; shard < shards; ++shard) {
    out.sample({{"shard", std::to_string(shard)}}, accepted_by_shard(shard));
  }
  if (shards == 0) out.sample({{"shard", "0"}}, accepted_total());
  out.gauge("pdcu_net_connections_active",
            "Connections currently open on the reactor.",
            active_connections());
  out.gauge("pdcu_net_connections_peak",
            "Highest concurrent connection count observed.",
            peak_connections());
  out.counter("pdcu_net_requests_total",
              "Requests answered through the reactor hot path.",
              requests_total());
  out.counter("pdcu_net_overload_total",
              "Connections rejected with the overload answer (503).",
              overload_total());
  out.counter("pdcu_net_read_timeouts_total",
              "Connections that timed out mid-request (answered 408).",
              read_timeouts_total());
  out.counter("pdcu_net_idle_closes_total",
              "Idle keep-alive connections reaped by the timeout wheel.",
              idle_closes_total());
  out.counter("pdcu_net_writev_calls_total",
              "Vectored writes issued on the response path.",
              writev_calls_total());
  out.counter("pdcu_net_partial_writes_total",
              "writev calls that could not flush the whole response.",
              partial_writes_total());
  out.counter("pdcu_net_write_errors_total",
              "Responses lost to a dead peer (EPIPE/ECONNRESET).",
              write_errors_total());
  return out.take();
}

}  // namespace pdcu::net
