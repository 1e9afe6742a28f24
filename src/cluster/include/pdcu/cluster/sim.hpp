// Deterministic virtual-time cluster simulation: policy.hpp's
// virtual-clock driver. Each request runs FrontTier::proxy's plan_route
// and AttemptMachine over the real ring (HashRing); the sim owns only what
// an attempt costs and how it ends (a killed node refuses, a dropped link
// is a connect timeout), the probe ticks, and faults from net's
// FaultInjector and scripted SimEvents, all on a discrete-event virtual
// clock. No sockets, no threads, no wall clock: the run is a pure function
// of SimOptions, so a seed that exposes a failover bug replays
// bit-identically (the report carries an fnv1a checksum of the event log
// to prove it).
//
// Node numbering for FaultInjector rules: replica i is node i; the front
// tier is node `replicas` (see SimOptions::front_node()).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/net/fault.hpp"

namespace pdcu::cluster {

/// A scripted state change at a virtual time.
struct SimEvent {
  enum class Kind {
    kKill,     ///< replica process dies (connect refused from now on)
    kRestart,  ///< replica process comes back
    kDegrade,  ///< reload fails: keeps serving last-known-good, and its
               ///< /healthz answers "degraded"
    kRecover,  ///< reload succeeds: degraded clears
  };
  std::uint64_t at_ms = 0;
  Kind kind = Kind::kKill;
  unsigned replica = 0;
};

struct SimOptions {
  unsigned replicas = 3;
  std::uint64_t seed = 1;
  std::uint64_t duration_ms = 10'000;
  std::uint64_t requests = 500;
  std::size_t max_attempts = 3;
  std::uint64_t budget_ms = 2'000;
  std::uint64_t backoff_initial_ms = 10;
  std::uint64_t backoff_cap_ms = 200;
  std::uint64_t attempt_timeout_ms = 250;  ///< cost of a dropped link
  std::uint64_t service_ms = 2;            ///< healthy replica latency
  std::uint64_t probe_interval_ms = 200;
  unsigned vnodes = 64;
  std::vector<SimEvent> events;
  net::FaultInjector fault;  ///< link drop/delay/partition rules

  unsigned front_node() const { return replicas; }
};

struct SimReport {
  std::uint64_t requests_total = 0;
  std::uint64_t ok = 0;
  std::uint64_t client_errors = 0;  ///< requests the client saw fail
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t shed = 0;  ///< requests routed around a degraded owner
  std::uint64_t upstream_errors = 0;
  std::uint64_t max_latency_ms = 0;
  /// fnv1a_64 over every event-log line; equal seeds ⇒ equal checksums.
  std::uint64_t checksum = 0;
  std::vector<std::string> log;

  std::string render_json() const;
};

SimReport run_sim(const SimOptions& options);

/// Adds a named chaos scenario: "none", or replica 0 is killed
/// ("kill-one"), degraded ("degrade-one") or cut off from the front
/// ("partition") for the middle third of the run. False for other names.
bool apply_scenario(std::string_view name, SimOptions& options);

}  // namespace pdcu::cluster
