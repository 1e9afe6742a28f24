#include "pdcu/cluster/policy.hpp"

#include "pdcu/support/strings.hpp"

namespace pdcu::cluster {

namespace {

using std::chrono::milliseconds;

CandidateClass classify(const ProbeState& probe) {
  if (!probe.alive) return CandidateClass::kDead;
  return probe.degraded ? CandidateClass::kDegraded : CandidateClass::kHealthy;
}

}  // namespace

RoutePlan plan_route(
    const HashRing& ring, std::string_view key, std::size_t max_attempts,
    const std::vector<std::pair<std::string, ProbeState>>& probes) {
  RoutePlan plan;
  const std::vector<std::string> order = ring.route(key, max_attempts);
  if (order.empty()) return plan;
  plan.owner = order.front();
  auto& out = plan.candidates;
  for (const std::string& id : order) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (probes[i].first != id) continue;
      out.push_back({id, i, classify(probes[i].second)});
      break;
    }
  }
  // Stable partition: healthy < degraded < dead, ring order within each
  // class. std::stable_partition twice keeps the walk deterministic.
  const auto healthy_end = std::stable_partition(
      out.begin(), out.end(),
      [](const Candidate& c) { return c.cls == CandidateClass::kHealthy; });
  std::stable_partition(healthy_end, out.end(), [](const Candidate& c) {
    return c.cls == CandidateClass::kDegraded;
  });
  // Shed: the owner is still on the walk, behind a healthy node, because
  // it is degraded (a dead owner was not shed; it failed).
  plan.shed = !out.empty() && out.front().id != plan.owner &&
              std::any_of(out.begin(), out.end(), [&](const Candidate& c) {
                return c.id == plan.owner &&
                       c.cls == CandidateClass::kDegraded;
              });
  return plan;
}

AttemptMachine::AttemptMachine(RoutePlan plan, AttemptLimits limits)
    : plan_(std::move(plan)), limits_(limits) {
  tally_.shed = plan_.shed;
}

AttemptAction AttemptMachine::next(milliseconds elapsed) {
  using Kind = AttemptAction::Kind;
  const milliseconds remaining = limits_.budget - elapsed;
  if (done_) return {};
  if (remaining.count() <= 0 || next_ >= plan_.candidates.size()) {
    done_ = tally_.exhausted = true;
    return {};
  }
  if (next_ > 0 && !backed_off_) {
    backed_off_ = true;
    ++tally_.retries;
    const milliseconds wait =
        std::min(backoff_for(static_cast<unsigned>(next_ - 1),
                             limits_.backoff_initial, limits_.backoff_cap),
                 remaining);
    if (wait.count() > 0) return {.kind = Kind::kWait, .wait = wait};
  }
  ++tally_.attempts;
  return {.kind = Kind::kTry,
          .candidate = &plan_.candidates[next_],
          .deadline = std::min(limits_.attempt_timeout, remaining),
          .remaining = remaining};
}

std::optional<bool> AttemptMachine::report(AttemptOutcome outcome) {
  const Candidate& tried = plan_.candidates[next_];
  const bool dead = tried.cls == CandidateClass::kDead;
  if (outcome == AttemptOutcome::kServed) {
    done_ = true;
    tally_.failover = tried.id != plan_.owner;
    return dead ? std::optional(true) : std::nullopt;
  }
  if (outcome == AttemptOutcome::kLocal) {
    done_ = tally_.exhausted = true;
    return std::nullopt;
  }
  ++tally_.upstream_errors;
  ++next_;
  backed_off_ = false;
  // A connect-level failure is strong evidence the replica is gone; don't
  // wait for the next probe tick to route around it.
  const bool unreachable = outcome == AttemptOutcome::kRefused ||
                           outcome == AttemptOutcome::kConnectTimeout;
  return unreachable && !dead ? std::optional(false) : std::nullopt;
}

std::chrono::milliseconds effective_budget(
    std::chrono::milliseconds configured, const std::string* client_header) {
  if (client_header == nullptr) return configured;
  const auto requested = strings::parse_u64(strings::trim(*client_header));
  if (!requested || *requested == 0) return configured;
  const auto asked = std::chrono::milliseconds(*requested);
  return std::min(configured, asked);
}

}  // namespace pdcu::cluster
