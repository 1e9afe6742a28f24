#include "pdcu/cluster/sim.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "pdcu/cluster/policy.hpp"
#include "pdcu/cluster/ring.hpp"
#include "pdcu/support/hash.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::cluster {

namespace {

struct SimReplica {
  std::string id;
  bool alive = true;
  bool degraded = false;
};

/// Chronological merge of scripted events, probe ticks and request
/// arrivals, with a stable tie-break so identical options always replay
/// in the same order: at equal times, scripted events apply first (a kill
/// at t and a request at t sees the kill), then probes, then requests in
/// arrival order.
enum class TickKind { kEvent = 0, kProbe = 1, kRequest = 2 };

struct Tick {
  std::uint64_t at_ms;
  TickKind kind;
  std::size_t index;  ///< into the per-kind list; also the tie-break

  bool operator<(const Tick& other) const {
    if (at_ms != other.at_ms) return at_ms < other.at_ms;
    if (kind != other.kind) return kind < other.kind;
    return index < other.index;
  }
};

const char* event_name(SimEvent::Kind kind) {
  switch (kind) {
    case SimEvent::Kind::kKill:
      return "kill";
    case SimEvent::Kind::kRestart:
      return "restart";
    case SimEvent::Kind::kDegrade:
      return "degrade";
    case SimEvent::Kind::kRecover:
      return "recover";
  }
  return "?";
}

}  // namespace

std::string SimReport::render_json() const {
  std::string json = "{\"requests\":" + std::to_string(requests_total);
  json += ",\"ok\":" + std::to_string(ok);
  json += ",\"client_errors\":" + std::to_string(client_errors);
  json += ",\"retries\":" + std::to_string(retries);
  json += ",\"failovers\":" + std::to_string(failovers);
  json += ",\"shed\":" + std::to_string(shed);
  json += ",\"upstream_errors\":" + std::to_string(upstream_errors);
  json += ",\"max_latency_ms\":" + std::to_string(max_latency_ms);
  json += ",\"checksum\":\"" + std::to_string(checksum) + "\"}\n";
  return json;
}

bool apply_scenario(std::string_view name, SimOptions& options) {
  const std::uint64_t third = options.duration_ms / 3;
  using Kind = SimEvent::Kind;
  if (name == "kill-one") {
    options.events.push_back({third, Kind::kKill, 0});
    options.events.push_back({2 * third, Kind::kRestart, 0});
  } else if (name == "degrade-one") {
    options.events.push_back({third, Kind::kDegrade, 0});
    options.events.push_back({2 * third, Kind::kRecover, 0});
  } else if (name == "partition") {
    // Requests routed at replica 0 burn the attempt timeout, then fail
    // over.
    options.fault.partition({0}, {static_cast<int>(options.front_node())},
                            static_cast<std::int64_t>(third),
                            static_cast<std::int64_t>(2 * third));
  } else if (name != "none") {
    return false;
  }
  return true;
}

SimReport run_sim(const SimOptions& options) {
  SimReport report;
  if (options.replicas == 0) return report;

  net::FaultInjector fault = options.fault;  // private copy: counters advance
  Rng rng(options.seed);
  const int front = static_cast<int>(options.front_node());

  std::vector<SimReplica> replicas(options.replicas);
  HashRing ring(options.vnodes);
  for (unsigned i = 0; i < options.replicas; ++i) {
    replicas[i].id = "replica-" + std::to_string(i);
    ring.add_node(replicas[i].id);
  }
  std::vector<std::pair<std::string, ProbeState>> probes;
  for (const SimReplica& replica : replicas) {
    probes.push_back({replica.id, ProbeState{}});
  }

  // Build the schedule: uniform request arrivals (keys drawn from the rng
  // per request, in arrival order, so the stream is seed-stable).
  std::vector<Tick> ticks;
  std::vector<SimEvent> events = options.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const SimEvent& a, const SimEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  for (std::size_t i = 0; i < events.size(); ++i) {
    ticks.push_back({events[i].at_ms, TickKind::kEvent, i});
  }
  if (options.probe_interval_ms > 0) {
    std::size_t n = 0;
    for (std::uint64_t t = options.probe_interval_ms; t <= options.duration_ms;
         t += options.probe_interval_ms) {
      ticks.push_back({t, TickKind::kProbe, n++});
    }
  }
  for (std::uint64_t i = 0; i < options.requests; ++i) {
    const std::uint64_t at =
        options.requests <= 1
            ? 0
            : (i * options.duration_ms) / options.requests;
    ticks.push_back({at, TickKind::kRequest, static_cast<std::size_t>(i)});
  }
  std::sort(ticks.begin(), ticks.end());

  auto note = [&report](std::string line) {
    report.checksum =
        hash::fnv1a_64_update(report.checksum ? report.checksum
                                              : hash::kFnv1aInit,
                              line);
    report.log.push_back(std::move(line));
  };

  auto probe_all = [&](std::uint64_t now) {
    for (unsigned i = 0; i < options.replicas; ++i) {
      SimReplica& replica = replicas[i];
      auto& state = probes[i].second;
      const bool reachable =
          replica.alive &&
          fault.alive(static_cast<int>(i), static_cast<std::int64_t>(now)) &&
          !fault.intercept(front, static_cast<int>(i),
                           static_cast<std::int64_t>(now))
               .drop &&
          !fault.intercept(static_cast<int>(i), front,
                           static_cast<std::int64_t>(now))
               .drop;
      state.alive = reachable;
      if (reachable) state.degraded = replica.degraded;
    }
  };

  // One attempt on the virtual clock: advances `clock` by its cost. A dead
  // node refuses at once. A dropped link is a connect that never completes
  // (the sim models no pooled sockets), so it costs the attempt deadline.
  auto attempt = [&](std::size_t index, std::uint64_t& clock,
                     const AttemptAction& action) {
    const int node = static_cast<int>(index);
    const auto t = static_cast<std::int64_t>(clock);
    if (!replicas[index].alive || !fault.alive(node, t)) {
      clock += 1;
      return AttemptOutcome::kRefused;
    }
    const auto link = fault.intercept(front, node, t);
    if (link.drop) {
      clock += static_cast<std::uint64_t>(action.deadline.count());
      return AttemptOutcome::kConnectTimeout;
    }
    const std::uint64_t cost =
        options.service_ms + static_cast<std::uint64_t>(link.delay_ms);
    const auto left = static_cast<std::uint64_t>(action.remaining.count());
    if (cost > left) {
      clock += left;
      return AttemptOutcome::kTimedOut;
    }
    clock += cost;
    return AttemptOutcome::kServed;
  };

  using std::chrono::milliseconds;
  const AttemptLimits limits{milliseconds(options.budget_ms),
                             milliseconds(options.attempt_timeout_ms),
                             milliseconds(options.backoff_initial_ms),
                             milliseconds(options.backoff_cap_ms)};

  for (const Tick& tick : ticks) {
    const std::uint64_t now = tick.at_ms;
    switch (tick.kind) {
      case TickKind::kEvent: {
        const SimEvent& event = events[tick.index];
        SimReplica& replica = replicas[event.replica % replicas.size()];
        switch (event.kind) {
          case SimEvent::Kind::kKill:
            replica.alive = false;
            break;
          case SimEvent::Kind::kRestart:
            replica.alive = true;
            break;
          case SimEvent::Kind::kDegrade:
            // Failed rebuild: keeps serving last-known-good, and its
            // /healthz says so.
            replica.degraded = true;
            break;
          case SimEvent::Kind::kRecover:
            replica.degraded = false;
            break;
        }
        note("t=" + std::to_string(now) + " event " +
             event_name(event.kind) + " " + replica.id);
        break;
      }
      case TickKind::kProbe:
        probe_all(now);
        break;
      case TickKind::kRequest: {
        ++report.requests_total;
        const std::string key =
            "/activities/a" + std::to_string(rng.below(256)) + "/";
        AttemptMachine machine(
            plan_route(ring, key, options.max_attempts, probes),
            limits);
        std::uint64_t clock = now;
        std::optional<std::size_t> served_by;
        for (;;) {
          const AttemptAction action =
              machine.next(milliseconds(clock - now));
          if (action.kind == AttemptAction::Kind::kGiveUp) break;
          if (action.kind == AttemptAction::Kind::kWait) {
            clock += static_cast<std::uint64_t>(action.wait.count());
            continue;
          }
          const std::size_t index = action.candidate->replica;
          const auto outcome = attempt(index, clock, action);
          if (const auto alive = machine.report(outcome)) {
            probes[index].second.alive = *alive;
          }
          if (outcome == AttemptOutcome::kServed) {
            served_by = index;
            break;
          }
        }
        const AttemptTally& tally = machine.tally();
        report.retries += tally.retries;
        report.upstream_errors += tally.upstream_errors;
        if (tally.shed) ++report.shed;
        if (tally.failover) ++report.failovers;
        const std::uint64_t latency = clock - now;
        report.max_latency_ms = std::max(report.max_latency_ms, latency);
        ++(served_by ? report.ok : report.client_errors);
        note("t=" + std::to_string(now) + " req " + key + " -> " +
             (served_by ? replicas[*served_by].id : "FAIL") +
             " attempts=" + std::to_string(tally.attempts) +
             " lat=" + std::to_string(latency));
        break;
      }
    }
  }
  if (report.checksum == 0) report.checksum = hash::kFnv1aInit;
  return report;
}

}  // namespace pdcu::cluster
