// Deterministic message-level fault injection for the cluster simulation.
// Where fs::FaultInjector breaks the Nth read of a file, net::FaultInjector
// breaks the Nth message on a (src, dst) link at a given virtual time:
// drop it, delay it, partition two node groups, or declare a node dead for
// a window. The virtual-time simulation (cluster::run_sim) consults it for
// every request attempt and health probe, so a partition or replica-kill
// scenario replays bit-identically from a seed plus a rule list — no wall
// clock, no thread scheduling, no sockets.
//
// Nodes are small integers (the simulation uses 0..replicas-1 for replicas
// and `replicas` for the front tier); kAnyNode matches every node. Rules
// are tried in insertion order; the first rule whose link, time window,
// and [skip, skip+limit) match counter all hit decides the action, and
// counters advance deterministically per matching message.
#pragma once

#include <cstdint>
#include <vector>

namespace pdcu::net {

/// Matches any node id in a FaultInjector rule.
inline constexpr int kAnyNode = -1;

class FaultInjector {
 public:
  enum class Mode {
    kDrop,   ///< the message silently disappears (receiver sees a timeout)
    kDelay,  ///< the message arrives `delay_ms` later than it would have
  };

  /// One link rule. `src`/`dst` of kAnyNode match every node; the rule is
  /// live only while from_ms <= now < until_ms, and within that window it
  /// lets `skip` matching messages through before firing on at most
  /// `limit` of them.
  struct Rule {
    int src = kAnyNode;
    int dst = kAnyNode;
    Mode mode = Mode::kDrop;
    std::int64_t from_ms = 0;
    std::int64_t until_ms = INT64_MAX;
    std::uint64_t skip = 0;
    std::uint64_t limit = UINT64_MAX;
    std::int64_t delay_ms = 0;  ///< kDelay: added latency
    bool symmetric = false;     ///< also match the reversed (dst, src) link
  };

  /// What the intercepted message should do.
  struct Action {
    bool drop = false;
    std::int64_t delay_ms = 0;
  };

  void add_rule(Rule rule);

  /// Symmetric drop of every message between the two groups while
  /// from_ms <= now < until_ms — a network partition.
  void partition(const std::vector<int>& group_a,
                 const std::vector<int>& group_b, std::int64_t from_ms,
                 std::int64_t until_ms = INT64_MAX);

  /// Declares `node` dead from `at_ms` until `until_ms`: alive() reports
  /// false and the simulation fails its connections fast (connection
  /// refused), which is what a SIGKILLed process looks like from outside.
  void kill(int node, std::int64_t at_ms, std::int64_t until_ms = INT64_MAX);

  bool alive(int node, std::int64_t now_ms) const;

  /// Consulted for every simulated message; advances matching counters.
  Action intercept(int src, int dst, std::int64_t now_ms);

  /// Total rule firings so far (drops + delays).
  std::uint64_t injected() const { return injected_; }

  void clear();

 private:
  struct RuleState {
    Rule rule;
    std::uint64_t matched = 0;
  };
  struct KillWindow {
    int node;
    std::int64_t from_ms;
    std::int64_t until_ms;
  };

  // The simulation is single-threaded by construction (that is the whole
  // point of virtual time), so no locking here.
  std::vector<RuleState> rules_;
  std::vector<KillWindow> kills_;
  std::uint64_t injected_ = 0;
};

}  // namespace pdcu::net
