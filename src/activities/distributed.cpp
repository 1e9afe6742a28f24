#include "pdcu/activities/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "pdcu/support/rng.hpp"

namespace pdcu::act {

// --- SelfStabilizingTokenRing --------------------------------------------------

bool TokenRing::privileged(std::size_t i) const {
  const std::size_t n = states.size();
  if (i == 0) return states[0] == states[n - 1];
  return states[i] != states[i - 1];
}

int TokenRing::token_count() const {
  int count = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (privileged(i)) ++count;
  }
  return count;
}

void TokenRing::step(std::size_t i) {
  if (!privileged(i)) return;
  if (i == 0) {
    states[0] = (states[0] + 1) % k;
  } else {
    states[i] = states[i - 1];
  }
}

StabilizationResult stabilize_token_ring(std::vector<int> initial_states,
                                         int k, rt::SchedulePolicy policy,
                                         std::uint64_t seed,
                                         std::size_t max_steps,
                                         std::size_t closure_steps) {
  TokenRing ring{std::move(initial_states), k};
  StabilizationResult result;
  result.initial_tokens = ring.token_count();

  Rng rng(seed);
  auto schedule = rt::run_schedule(
      ring.states.size(), [&ring](std::size_t i) { ring.step(i); },
      [&ring] { return ring.legitimate(); }, policy, rng, max_steps);
  result.stabilized = schedule.converged;
  result.steps = schedule.steps;

  // Closure: once legitimate, every subsequent move keeps exactly one token.
  result.stayed_legitimate = result.stabilized;
  if (result.stabilized) {
    for (std::size_t s = 0; s < closure_steps; ++s) {
      ring.step(rng.below(ring.states.size()));
      if (!ring.legitimate()) {
        result.stayed_legitimate = false;
        break;
      }
    }
  }
  return result;
}

// --- StableLeaderElection ---------------------------------------------------------

ElectionResult leader_election_gossip(const std::vector<std::int64_t>& ids,
                                      rt::SchedulePolicy policy,
                                      std::uint64_t seed,
                                      std::size_t max_steps) {
  ElectionResult result;
  if (ids.empty()) return result;
  const std::int64_t expected = *std::max_element(ids.begin(), ids.end());
  std::vector<std::int64_t> candidates = ids;
  const std::size_t n = ids.size();

  Rng rng(seed);
  auto step = [&candidates, n](std::size_t i) {
    const std::size_t left = (i + n - 1) % n;
    candidates[i] = std::max(candidates[i], candidates[left]);
  };
  auto done = [&candidates, expected] {
    return std::all_of(candidates.begin(), candidates.end(),
                       [&](std::int64_t c) { return c == expected; });
  };
  auto schedule =
      rt::run_schedule(n, step, done, policy, rng, max_steps);
  result.steps = schedule.steps;
  result.leader_id = candidates[0];
  result.elected_maximum = done();

  // Stability: once converged the protocol is quiescent — extra steps must
  // change nothing.
  if (result.elected_maximum) {
    std::vector<std::int64_t> before = candidates;
    for (std::size_t s = 0; s < 4 * n; ++s) step(rng.below(n));
    result.stable = before == candidates;
  }
  return result;
}

ElectionResult leader_election_ring(const std::vector<std::int64_t>& ids) {
  ElectionResult result;
  const int n = static_cast<int>(ids.size());
  if (n == 0) return result;
  constexpr int kCandidateTag = 1;
  constexpr int kElectedTag = 2;
  std::vector<std::int64_t> elected(static_cast<std::size_t>(n), -1);

  auto body = [&](rt::Comm& comm) {
    const int rank = comm.rank();
    const int next = (rank + 1) % n;
    const std::int64_t my_id = ids[static_cast<std::size_t>(rank)];
    comm.send(next, {my_id}, kCandidateTag);
    while (true) {
      rt::ClassMessage message = comm.recv(rt::kAny, rt::kAny);
      const std::int64_t value = message.payload[0];
      if (message.tag == kCandidateTag) {
        comm.work(1);
        if (value > my_id) {
          comm.send(next, {value}, kCandidateTag);  // forward the stronger id
        } else if (value == my_id) {
          // Our id survived the whole ring: we are the leader.
          comm.send(next, {my_id}, kElectedTag);
        }
        // value < my_id: swallow the weaker candidate.
      } else {
        elected[static_cast<std::size_t>(rank)] = value;
        if (value != my_id) {
          comm.send(next, {value}, kElectedTag);
        }
        return;  // the announcement has passed through us
      }
    }
  };
  rt::ClassroomResult run = rt::Classroom::run(n, body);
  result.messages = run.cost.total_messages;
  result.leader_id = elected[0];
  const std::int64_t expected = *std::max_element(ids.begin(), ids.end());
  result.elected_maximum =
      std::all_of(elected.begin(), elected.end(),
                  [&](std::int64_t e) { return e == expected; });
  result.stable = result.elected_maximum;
  return result;
}

// --- ByzantineGenerals --------------------------------------------------------------

namespace {

/// The adversary: a traitor tells even-numbered recipients the truth and
/// odd-numbered recipients the opposite — the conflicting-messages
/// behaviour the dramatization uses, and the one that defeats OM(1) with
/// three generals.
int traitor_lie(int recipient, int value) {
  return recipient % 2 == 0 ? value : 1 - value;
}

int majority(const std::vector<int>& votes) {
  int ones = 0;
  for (int v : votes) ones += v;
  const int zeros = static_cast<int>(votes.size()) - ones;
  if (ones == zeros) return 0;  // default order: retreat
  return ones > zeros ? 1 : 0;
}

/// OM(m): returns, for each lieutenant (loyal or not), the value it ends up
/// using for this commander's order. Traitorous lieutenants' entries are
/// what they *relay*, which the algorithm needs for the majority votes.
std::map<int, int> om(int commander, int value, int m,
                      const std::vector<int>& lieutenants,
                      const std::set<int>& traitors,
                      std::int64_t& messages) {
  std::map<int, int> received;
  for (int i : lieutenants) {
    ++messages;
    received[i] =
        traitors.count(commander) != 0 ? traitor_lie(i, value) : value;
  }
  if (m == 0) return received;

  // Every lieutenant relays what it received to the others via OM(m-1).
  std::map<int, std::map<int, int>> reports;  // reports[j][i] = i's relay to j
  for (int i : lieutenants) {
    std::vector<int> rest;
    for (int j : lieutenants) {
      if (j != i) rest.push_back(j);
    }
    auto sub = om(i, received[i], m - 1, rest, traitors, messages);
    for (int j : rest) reports[j][i] = sub[j];
  }

  std::map<int, int> decision;
  for (int j : lieutenants) {
    std::vector<int> votes;
    votes.push_back(received[j]);
    for (int i : lieutenants) {
      if (i != j) votes.push_back(reports[j][i]);
    }
    decision[j] = majority(votes);
  }
  return decision;
}

}  // namespace

ByzantineResult byzantine_om(int generals, const std::set<int>& traitors,
                             int rounds, int order) {
  ByzantineResult result;
  std::vector<int> lieutenants;
  for (int i = 1; i < generals; ++i) lieutenants.push_back(i);

  auto decisions = om(0, order, rounds, lieutenants, traitors,
                      result.messages);

  bool first = true;
  int agreed = -1;
  result.agreement = true;
  for (int i : lieutenants) {
    if (traitors.count(i) != 0) continue;
    result.loyal_decisions.push_back(decisions[i]);
    if (first) {
      agreed = decisions[i];
      first = false;
    } else if (decisions[i] != agreed) {
      result.agreement = false;
    }
  }
  result.validity = traitors.count(0) != 0 ||
                    std::all_of(result.loyal_decisions.begin(),
                                result.loyal_decisions.end(),
                                [&](int d) { return d == order; });
  return result;
}

// --- ParallelGarbageCollection ---------------------------------------------------

GcResult parallel_gc(int objects, int edges, int mutator_moves,
                     bool write_barrier, std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(objects);
  // Edge list: fixed number of slots the mutator re-points (the strings the
  // students hold). Object 0 is the root set.
  struct Edge {
    std::size_t from;
    std::size_t to;
  };
  std::vector<Edge> graph;
  graph.reserve(static_cast<std::size_t>(edges));
  for (int e = 0; e < edges; ++e) {
    graph.push_back({rng.below(n), rng.below(n)});
  }

  std::vector<GcColor> color(n, GcColor::kWhite);
  std::vector<std::size_t> gray;
  color[0] = GcColor::kGray;
  gray.push_back(0);

  int moves_left = mutator_moves;
  GcResult result;

  auto collector_step = [&] {
    if (gray.empty()) return;
    std::size_t u = gray.back();
    gray.pop_back();
    for (const Edge& edge : graph) {
      if (edge.from == u && color[edge.to] == GcColor::kWhite) {
        color[edge.to] = GcColor::kGray;
        gray.push_back(edge.to);
      }
    }
    color[u] = GcColor::kBlack;
  };

  auto mutator_step = [&] {
    if (moves_left <= 0 || graph.empty()) return;
    --moves_left;
    // Re-point a random string to a random object.
    Edge& edge = graph[rng.below(graph.size())];
    std::size_t target = rng.below(n);
    edge.to = target;
    // Dijkstra's write barrier: inserting a pointer from a black object to
    // a white one re-shades the target ("shout when you hide a box").
    if (write_barrier && color[edge.from] == GcColor::kBlack &&
        color[target] == GcColor::kWhite) {
      color[target] = GcColor::kGray;
      gray.push_back(target);
    }
  };

  // Interleave collector and mutator moves under a random schedule until
  // the mutators are done and marking has quiesced.
  while (moves_left > 0 || !gray.empty()) {
    ++result.steps;
    if (moves_left > 0 && rng.chance(0.5)) {
      mutator_step();
    } else {
      collector_step();
    }
  }

  // Sweep: anything still white is collected.
  std::vector<bool> collected(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (color[i] == GcColor::kWhite) {
      collected[i] = true;
      ++result.collected;
    }
  }

  // Ground truth: reachability in the *final* graph.
  std::vector<bool> reachable(n, false);
  std::vector<std::size_t> stack = {0};
  reachable[0] = true;
  while (!stack.empty()) {
    std::size_t u = stack.back();
    stack.pop_back();
    for (const Edge& edge : graph) {
      if (edge.from == u && !reachable[edge.to]) {
        reachable[edge.to] = true;
        stack.push_back(edge.to);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (reachable[i]) {
      ++result.live;
      if (collected[i]) result.lost_live_object = true;
    }
  }
  return result;
}

// --- GardenersAndSharedWork --------------------------------------------------------

namespace {

/// Everyone walks the whole orchard in a personal order and waters what
/// looks dry: looking at a tree is one step, watering it is the
/// gardener's next step, on the seeded schedule. Returns waterings per tree.
std::vector<int> water_uncoordinated(int gardeners, int trees,
                                     std::uint64_t seed) {
  struct Gardener {
    std::vector<std::size_t> order;
    std::size_t next = 0;  ///< position in `order` of the tree to look at
    bool walking_to_water = false;
  };
  std::vector<Gardener> crew;
  for (int id = 0; id < gardeners; ++id) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id));
    crew.push_back({rng.permutation(static_cast<std::size_t>(trees))});
  }
  std::vector<int> watered(static_cast<std::size_t>(trees), 0);
  int finished = trees == 0 ? gardeners : 0;
  auto step = [&](std::size_t id) {
    Gardener& g = crew[id];
    if (g.next == g.order.size()) return;
    const std::size_t tree = g.order[g.next];
    if (g.walking_to_water) {
      ++watered[tree];
      g.walking_to_water = false;
    } else if (watered[tree] == 0) {
      g.walking_to_water = true;
      return;
    }
    if (++g.next == g.order.size()) ++finished;
  };
  Rng rng(seed);
  rt::run_schedule(crew.size(), step, [&] { return finished == gardeners; },
                   rt::SchedulePolicy::kRandom, rng,
                   std::numeric_limits<std::size_t>::max());
  return watered;
}

/// The coordinated schemes on real threads; each waters every tree once
/// under any interleaving the OS picks.
std::vector<int> water_coordinated(int gardeners, int trees,
                                   GardenScheme scheme, std::uint64_t seed) {
  std::vector<std::atomic<int>> watered(static_cast<std::size_t>(trees));
  for (auto& w : watered) w.store(0);
  std::mutex gate;

  auto gardener = [&](int id) {
    if (scheme == GardenScheme::kStaticRows) {
      const int chunk = (trees + gardeners - 1) / gardeners;
      const int lo = id * chunk;
      const int hi = std::min(trees, lo + chunk);
      for (int t = lo; t < hi; ++t) {
        watered[static_cast<std::size_t>(t)].fetch_add(
            1, std::memory_order_relaxed);
      }
      return;
    }
    // Gate notes: check and mark the shared list under the gate's lock.
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(id));
    for (std::size_t t : rng.permutation(static_cast<std::size_t>(trees))) {
      std::lock_guard lock(gate);
      if (watered[t].load(std::memory_order_relaxed) == 0) {
        watered[t].fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < gardeners; ++i) threads.emplace_back(gardener, i);
  for (auto& t : threads) t.join();
  std::vector<int> counts;
  for (auto& w : watered) counts.push_back(w.load());
  return counts;
}

}  // namespace

GardenResult water_orchard(int gardeners, int trees, GardenScheme scheme,
                           std::uint64_t seed) {
  const std::vector<int> watered =
      scheme == GardenScheme::kNoCoordination
          ? water_uncoordinated(gardeners, trees, seed)
          : water_coordinated(gardeners, trees, scheme, seed);
  GardenResult result;
  result.trees = trees;
  for (int times : watered) {
    if (times == 0) {
      ++result.skipped;
    } else if (times == 1) {
      ++result.watered_exactly_once;
    } else {
      ++result.watered_twice_or_more;
    }
  }
  return result;
}

// --- TelephoneChain ------------------------------------------------------------------

TelephoneResult telephone_chain(int students, int words, int garble_percent,
                                std::uint64_t seed) {
  TelephoneResult result;
  result.chain_hops = students - 1;

  // Chain: rank 0 whispers to 1, 1 to 2, ...; each hop may garble words.
  std::vector<std::int64_t> final_message;
  auto chain_body = [&](rt::Comm& comm) {
    const int rank = comm.rank();
    std::vector<std::int64_t> message;
    if (rank == 0) {
      message.resize(static_cast<std::size_t>(words));
      for (int w = 0; w < words; ++w) message[static_cast<std::size_t>(w)] = w;
    } else {
      message = comm.recv(rank - 1, 0).payload;
      Rng rng(seed + static_cast<std::uint64_t>(rank));
      for (auto& word : message) {
        if (rng.below(100) < static_cast<std::uint64_t>(garble_percent)) {
          word = -1;  // a mangled word
        }
      }
      comm.work(static_cast<std::int64_t>(message.size()));
    }
    if (rank + 1 < comm.size()) {
      comm.send(rank + 1, message, 0);
    } else {
      final_message = message;
    }
  };
  rt::ClassroomResult chain_run = rt::Classroom::run(students, chain_body);
  result.chain_makespan = chain_run.cost.makespan;
  for (std::int64_t word : final_message) {
    if (word < 0) ++result.corrupted_words;
  }

  // Tree: the same message broadcast along a binomial tree.
  auto tree_body = [&](rt::Comm& comm) {
    std::vector<std::int64_t> message;
    if (comm.rank() == 0) {
      message.resize(static_cast<std::size_t>(words));
      for (int w = 0; w < words; ++w) message[static_cast<std::size_t>(w)] = w;
    }
    message = comm.bcast(0, std::move(message));
    comm.work(static_cast<std::int64_t>(message.size()));
  };
  rt::ClassroomResult tree_run = rt::Classroom::run(students, tree_body);
  result.tree_makespan = tree_run.cost.makespan;
  return result;
}

}  // namespace pdcu::act
