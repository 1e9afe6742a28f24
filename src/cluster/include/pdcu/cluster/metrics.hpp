// Front-tier counters, exposed as the pdcu_cluster_* family on the front
// tier's /_front/metrics endpoint (lint-clean exposition, same conventions
// as ServerMetrics). All relaxed atomics: every front shard and the prober
// thread bump them concurrently, and a scrape only needs a
// consistent-enough snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "pdcu/cluster/policy.hpp"

namespace pdcu::cluster {

class ClusterMetrics {
 public:
  void record_request() { requests_.fetch_add(1, kRelaxed); }
  /// One request's walk, as its AttemptMachine counted it.
  void record_attempts(const AttemptTally& tally) {
    retries_.fetch_add(tally.retries, kRelaxed);
    upstream_errors_.fetch_add(tally.upstream_errors, kRelaxed);
    failovers_.fetch_add(tally.failover ? 1 : 0, kRelaxed);
    shed_.fetch_add(tally.shed ? 1 : 0, kRelaxed);
    exhausted_.fetch_add(tally.exhausted ? 1 : 0, kRelaxed);
  }
  void record_probe_failure() { probe_failures_.fetch_add(1, kRelaxed); }
  void record_ring_moves(std::uint64_t moves) {
    ring_moves_.fetch_add(moves, kRelaxed);
  }
  void set_routable(std::uint64_t routable, std::uint64_t total) {
    routable_.store(routable, kRelaxed);
    ring_nodes_.store(total, kRelaxed);
  }

  std::uint64_t requests() const { return requests_.load(kRelaxed); }
  std::uint64_t retries() const { return retries_.load(kRelaxed); }
  std::uint64_t failovers() const { return failovers_.load(kRelaxed); }
  std::uint64_t shed() const { return shed_.load(kRelaxed); }
  std::uint64_t upstream_errors() const {
    return upstream_errors_.load(kRelaxed);
  }
  std::uint64_t exhausted() const { return exhausted_.load(kRelaxed); }
  std::uint64_t probe_failures() const {
    return probe_failures_.load(kRelaxed);
  }
  std::uint64_t ring_moves() const { return ring_moves_.load(kRelaxed); }
  std::uint64_t routable() const { return routable_.load(kRelaxed); }

  /// pdcu_cluster_* exposition lines (lint-clean).
  std::string render_text() const;

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> upstream_errors_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> ring_moves_{0};
  std::atomic<std::uint64_t> ring_nodes_{0};
  std::atomic<std::uint64_t> routable_{0};
};

}  // namespace pdcu::cluster
