// Reactor-core counters, exposed as the pdcu_net_* families on /metrics.
// Everything is a relaxed atomic so the shard loops never synchronize on
// observability; render_text() lists promtool-clean families through
// obs::Exposition (counters suffixed _total, gauges plain) that the server
// layer appends to its own.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pdcu::net {

/// Upper bound on reactor shards a NetMetrics can attribute accepts to.
/// Generous: shards are epoll loops, not workers; more than this on one
/// host would be configuration error, and excess shards still count into
/// the aggregate totals.
inline constexpr std::size_t kMaxShards = 64;

class NetMetrics {
 public:
  /// How many shard series render_text() emits (accepts beyond this still
  /// land in the aggregate counter).
  void set_shard_count(std::size_t shards);
  std::size_t shard_count() const {
    return shards_.load(std::memory_order_relaxed);
  }

  void record_accept(std::size_t shard);
  void record_close() { active_.fetch_sub(1, std::memory_order_relaxed); }
  void record_overload() {
    overload_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_read_timeout() {
    read_timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_idle_close() {
    idle_closes_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_writev(bool partial) {
    writev_calls_.fetch_add(1, std::memory_order_relaxed);
    if (partial) partial_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_write_error() {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_requests(std::uint64_t n) {
    requests_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t accepted_total() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t accepted_by_shard(std::size_t shard) const;
  std::uint64_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_connections() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t overload_total() const {
    return overload_.load(std::memory_order_relaxed);
  }
  std::uint64_t read_timeouts_total() const {
    return read_timeouts_.load(std::memory_order_relaxed);
  }
  std::uint64_t idle_closes_total() const {
    return idle_closes_.load(std::memory_order_relaxed);
  }
  std::uint64_t writev_calls_total() const {
    return writev_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t partial_writes_total() const {
    return partial_writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t write_errors_total() const {
    return write_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_total() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// The pdcu_net_* exposition block (promtool-clean).
  std::string render_text() const;

 private:
  std::atomic<std::size_t> shards_{0};
  std::array<std::atomic<std::uint64_t>, kMaxShards> by_shard_{};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> overload_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
  std::atomic<std::uint64_t> idle_closes_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace pdcu::net
