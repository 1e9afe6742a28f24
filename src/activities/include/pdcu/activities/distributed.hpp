// Executable simulations of the distributed-systems activities:
// SelfStabilizingTokenRing (Sivilotti & Demirbas), StableLeaderElection and
// ParallelGarbageCollection (Sivilotti & Pike), ByzantineGenerals (Lloyd),
// GardenersAndSharedWork (Kolikant), and TelephoneChain (Kitchen et al.).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "pdcu/runtime/classroom.hpp"
#include "pdcu/runtime/scheduler.hpp"

namespace pdcu::act {

// --- SelfStabilizingTokenRing (Dijkstra's K-state protocol) -----------------

/// Ring state: one counter in [0, K) per student; student 0 is the root.
struct TokenRing {
  std::vector<int> states;
  int k = 0;  ///< K >= number of students

  /// A student is "privileged" (holds a token) when their rule is enabled:
  /// root when equal to the left neighbor, others when different.
  bool privileged(std::size_t i) const;
  /// Number of tokens currently in the ring.
  int token_count() const;
  /// Legitimate configurations have exactly one token.
  bool legitimate() const { return token_count() == 1; }
  /// Fires student i's rule if enabled (the classroom move).
  void step(std::size_t i);
};

struct StabilizationResult {
  bool stabilized = false;
  std::size_t steps = 0;          ///< moves until first legitimate state
  int initial_tokens = 0;
  bool stayed_legitimate = false; ///< closure: legitimate ever after
};

/// Runs the ring from an arbitrary (possibly corrupt) state under the given
/// schedule until it reaches a legitimate configuration, then verifies
/// closure for `closure_steps` more moves.
StabilizationResult stabilize_token_ring(std::vector<int> initial_states,
                                         int k, rt::SchedulePolicy policy,
                                         std::uint64_t seed,
                                         std::size_t max_steps,
                                         std::size_t closure_steps = 200);

// --- StableLeaderElection -----------------------------------------------------

struct ElectionResult {
  std::int64_t leader_id = -1;
  bool elected_maximum = false;   ///< safety: the max id won
  bool stable = false;            ///< no changes once converged
  std::size_t steps = 0;          ///< agent moves (gossip variant)
  std::int64_t messages = 0;      ///< ring messages (Chang-Roberts variant)
};

/// The dramatized "adopt the larger candidate you can see" protocol: each
/// student repeatedly takes the max of their candidate and their left
/// neighbor's. Converges to the maximum id everywhere; stability checked by
/// running extra steps after convergence.
ElectionResult leader_election_gossip(const std::vector<std::int64_t>& ids,
                                      rt::SchedulePolicy policy,
                                      std::uint64_t seed,
                                      std::size_t max_steps);

/// Chang-Roberts message-passing election on the classroom runtime; counts
/// real messages.
ElectionResult leader_election_ring(const std::vector<std::int64_t>& ids);

// --- ByzantineGenerals (oral messages, OM(m)) ----------------------------------

struct ByzantineResult {
  std::vector<int> loyal_decisions;  ///< decision of each loyal lieutenant
  bool agreement = false;  ///< IC1: all loyal lieutenants agree
  bool validity = false;   ///< IC2: loyal commander's order is obeyed
  std::int64_t messages = 0;
};

/// Runs Lamport-Shostak-Pease OM(m) with `generals` participants
/// (general 0 commands), the given traitor set, and `order` in {0, 1}.
/// Traitors lie deterministically based on the recipient, the worst case
/// the classroom discovers.
ByzantineResult byzantine_om(int generals, const std::set<int>& traitors,
                             int rounds, int order);

// --- ParallelGarbageCollection ---------------------------------------------------

/// Tri-color marking state of a heap object.
enum class GcColor { kWhite, kGray, kBlack };

struct GcResult {
  bool lost_live_object = false;  ///< a reachable object was collected
  int collected = 0;
  int live = 0;
  std::size_t steps = 0;
};

/// Concurrent mark-sweep on a random object graph: mutator agents re-point
/// edges while the collector marks. With the write barrier (the classroom's
/// "shout when you hide a box") no live object is ever collected; without
/// it, adversarial schedules can hide live objects.
GcResult parallel_gc(int objects, int edges, int mutator_moves,
                     bool write_barrier, std::uint64_t seed);

// --- GardenersAndSharedWork --------------------------------------------------------

/// Coordination scheme for watering the orchard.
enum class GardenScheme {
  kNoCoordination,  ///< everyone waters whatever looks dry (duplicates)
  kStaticRows,      ///< rows partitioned in advance
  kGateNotes        ///< shared marks at the gate (mutex-protected set)
};

struct GardenResult {
  int trees = 0;
  int watered_exactly_once = 0;
  int watered_twice_or_more = 0;
  int skipped = 0;
};

/// `gardeners` gardeners water `trees` trees under the scheme. Without
/// coordination, looking at a tree and watering it are two steps on a
/// schedule drawn from `seed`; the coordinated schemes run one thread per
/// gardener.
GardenResult water_orchard(int gardeners, int trees, GardenScheme scheme,
                           std::uint64_t seed);

// --- TelephoneChain ------------------------------------------------------------------

struct TelephoneResult {
  std::int64_t chain_makespan = 0;  ///< virtual time, linear chain
  std::int64_t tree_makespan = 0;   ///< virtual time, binomial tree
  int chain_hops = 0;
  int corrupted_words = 0;  ///< words garbled along the chain
};

/// Whispers a message of `words` words along a chain of `students`, then
/// broadcasts it along a tree, comparing completion times; each hop garbles
/// a word with probability `garble_percent`/100.
TelephoneResult telephone_chain(int students, int words, int garble_percent,
                                std::uint64_t seed);

}  // namespace pdcu::act
