// The front tier's routing brain, with no I/O in it. It owns every
// per-request decision: plan_route orders the candidates and says whether
// the owner was shed; AttemptMachine walks them, deciding budget checks,
// backoff, attempt deadlines, the retry / failover / upstream-error /
// exhausted counts, and which outcomes mark a replica dead or alive. Its
// two drivers own only the I/O: the real proxy (front.cpp: wall clock,
// sockets) and the virtual-time sim (sim.cpp: FaultInjector, virtual
// clock). So a chaos run in the sim is evidence about the shipped policy,
// not about a parallel reimplementation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pdcu/cluster/ring.hpp"

namespace pdcu::cluster {

/// The front tier's local, probe-derived view of one replica.
struct ProbeState {
  bool alive = true;      ///< last probe (or upstream attempt) succeeded
  bool degraded = false;  ///< last /healthz said "degraded"
};

/// How a candidate was classified when the route was planned.
enum class CandidateClass {
  kHealthy,   ///< routable, believed up and serving fresh content
  kDegraded,  ///< serving last-known-good; used only after healthy ones
  kDead,      ///< probe/attempt failure; last resort (it may have healed)
};

struct Candidate {
  std::string id;
  std::size_t replica = 0;  ///< index of its entry in plan_route's `probes`
  CandidateClass cls = CandidateClass::kHealthy;
};

struct RoutePlan {
  std::vector<Candidate> candidates;
  std::string owner;  ///< empty for an empty ring
  bool shed = false;  ///< the degraded owner was moved off the front
};

/// Ring-ordered candidates for `key`, stably partitioned so every healthy
/// node precedes every degraded node, which precedes every dead node.
/// Dead and degraded nodes stay on the list as a last resort: with the
/// whole fleet down it is still better to try than to fail without a
/// connection attempt. `probes` has one entry per replica, in the
/// caller's replica order; a candidate's `replica` indexes it, and a ring
/// node with no entry is left out.
RoutePlan plan_route(
    const HashRing& ring, std::string_view key, std::size_t max_attempts,
    const std::vector<std::pair<std::string, ProbeState>>& probes);

/// Capped exponential backoff before retry `attempt` (0-based: the first
/// retry waits `initial`, doubling after that).
template <typename Duration>
Duration backoff_for(unsigned attempt, Duration initial, Duration cap) {
  if (initial.count() <= 0) return Duration{0};
  Duration wait = initial;
  for (unsigned i = 0; i < attempt && wait < cap; ++i) wait += wait;
  return std::min(wait, cap);
}

/// The bounds of one request's walk. `attempt_timeout` bounds reaching a
/// candidate: the front's connect timeout, the sim's dropped-link cost.
struct AttemptLimits {
  std::chrono::milliseconds budget, attempt_timeout, backoff_initial,
      backoff_cap;
};

struct AttemptAction {
  enum class Kind { kWait, kTry, kGiveUp };
  Kind kind = Kind::kGiveUp;
  std::chrono::milliseconds wait{0};       ///< kWait: then ask again
  const Candidate* candidate = nullptr;    ///< kTry: then report() once
  std::chrono::milliseconds deadline{0};   ///< min(attempt_timeout, remaining)
  std::chrono::milliseconds remaining{0};  ///< budget left for the exchange
};

enum class AttemptOutcome {
  kServed,          ///< a reply below 500
  kServerError,     ///< a 5xx reply
  kRefused,         ///< nothing accepts connections there
  kConnectTimeout,  ///< not reached within the attempt's deadline
  kTimedOut,        ///< reached, then the exchange failed or ran out
  kLocal,           ///< this side could not try (no descriptor free)
};

struct AttemptTally {
  std::size_t attempts = 0, retries = 0, upstream_errors = 0;
  bool shed = false;       ///< copied from the plan
  bool failover = false;   ///< served by a node other than the ring owner
  bool exhausted = false;  ///< gave up
};

/// One request's walk over its RoutePlan. It reads no clock, never sleeps
/// and opens no socket: the driver passes next() the time elapsed since
/// the request started and performs the action it returns. Waits and
/// deadlines are clamped to the budget left; none left means kGiveUp.
class AttemptMachine {
 public:
  AttemptMachine(RoutePlan plan, AttemptLimits limits);

  AttemptAction next(std::chrono::milliseconds elapsed);

  /// How the last kTry ended. Returns the `alive` to record for its
  /// replica when the outcome contradicts the plan (a refused or
  /// timed-out connect to a live one, a served attempt from a dead one),
  /// else nullopt. `degraded` is left to the probes. kLocal says nothing
  /// about the replica: it ends the walk without charging an upstream
  /// error, since every other candidate would fail the same way.
  std::optional<bool> report(AttemptOutcome outcome);

  const RoutePlan& plan() const { return plan_; }
  const AttemptTally& tally() const { return tally_; }

 private:
  const RoutePlan plan_;
  const AttemptLimits limits_;
  AttemptTally tally_;
  std::size_t next_ = 0;     ///< the candidate the walk is at
  bool backed_off_ = false;  ///< the wait before candidate next_ is over
  bool done_ = false;
};

/// Header carrying the remaining per-request budget, in milliseconds,
/// hop by hop. The front tier stamps it on upstream requests (and honors
/// a client-supplied value by taking the minimum with its own budget).
inline constexpr std::string_view kDeadlineHeader = "X-Pdcu-Deadline";

/// Effective budget: the front tier's own cap, lowered by whatever the
/// client asked for. Zero or unparsable client values are ignored.
std::chrono::milliseconds effective_budget(
    std::chrono::milliseconds configured, const std::string* client_header);

}  // namespace pdcu::cluster
