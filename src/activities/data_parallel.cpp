#include "pdcu/activities/data_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>

#include "pdcu/support/rng.hpp"

namespace pdcu::act {

// --- ArraySummationWithCards -----------------------------------------------------

SummationResult array_summation(std::span<const std::int64_t> cards,
                                int students, rt::TraceLog* trace) {
  assert(students >= 1);
  SummationResult result;
  std::vector<std::int64_t> deck(cards.begin(), cards.end());
  std::int64_t total = 0;

  // Adding two numbers takes longer than handing a card to a neighbour;
  // with equal costs the dramatization would never show a speedup.
  rt::CostModel model;
  model.work_per_step = 4;

  auto body = [&](rt::Comm& comm) {
    std::vector<std::int64_t> slice = comm.scatter(0, deck);
    std::int64_t partial = 0;
    for (std::int64_t v : slice) {
      comm.work(1);
      partial += v;
    }
    if (trace != nullptr) {
      comm.log("sums a slice of " + std::to_string(slice.size()) +
               " cards: " + std::to_string(partial));
    }
    std::int64_t sum = comm.reduce(
        0, partial, [](std::int64_t a, std::int64_t b) { return a + b; });
    if (comm.rank() == 0) total = sum;
  };
  rt::ClassroomResult run = rt::Classroom::run(students, body, model, trace);
  result.sum = total;
  result.cost = run.cost;
  result.speedup_vs_serial = run.cost.speedup_vs(
      static_cast<std::int64_t>(cards.size()) * model.work_per_step);
  return result;
}

// --- ParallelArraySearch -----------------------------------------------------------

SearchResult parallel_search(std::span<const std::int64_t> cards,
                             std::int64_t target, int teams,
                             rt::TraceLog* trace) {
  assert(teams >= 1);
  SearchResult result;
  const std::int64_t n = static_cast<std::int64_t>(cards.size());
  const std::int64_t chunk = (n + teams - 1) / teams;
  constexpr std::int64_t kNoHit = std::numeric_limits<std::int64_t>::max();
  std::atomic<std::int64_t> found{-1};
  std::atomic<std::int64_t> flipped{0};

  // Every team flips one card per tick, so the shout is decided on the
  // virtual clock, not by which thread the OS runs first: a team's first
  // hit at local card k is heard at tick k + 1, the earliest tick wins
  // (ties go to the lower index), and nobody flips after it.
  auto body = [&](rt::Comm& comm) {
    const std::int64_t lo = std::min(n, comm.rank() * chunk);
    const std::int64_t hi = std::min(n, lo + chunk);
    std::int64_t my_hit = kNoHit;  // tick * n + index orders by tick first
    for (std::int64_t i = lo; i < hi; ++i) {
      if (cards[static_cast<std::size_t>(i)] == target) {
        my_hit = (i - lo + 1) * n + i;
        break;
      }
    }
    const std::int64_t first = comm.allreduce(
        my_hit, [](std::int64_t a, std::int64_t b) { return std::min(a, b); });
    const std::int64_t stop_tick = first == kNoHit ? hi - lo : first / n;
    const std::int64_t flips = std::min(hi - lo, stop_tick);
    comm.work(flips);
    flipped.fetch_add(flips, std::memory_order_relaxed);
    if (first != kNoHit && first == my_hit) {
      found.store(first % n, std::memory_order_relaxed);
      if (trace != nullptr) {
        comm.log("shouts FOUND at card " + std::to_string(first % n));
      }
    }
  };
  rt::ClassroomResult run = rt::Classroom::run(teams, body, {}, trace);
  result.found_index = found.load();
  result.cards_flipped = flipped.load();
  result.cost = run.cost;
  return result;
}

// --- MatrixMultiplicationTeams -------------------------------------------------------

Matrix Matrix::random(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m;
  m.n = n;
  m.data.resize(n * n);
  for (auto& v : m.data) v = rng.between(-9, 9);
  return m;
}

Matrix Matrix::zero(std::size_t n) {
  Matrix m;
  m.n = n;
  m.data.assign(n * n, 0);
  return m;
}

Matrix matmul_serial(const Matrix& a, const Matrix& b) {
  assert(a.n == b.n);
  Matrix c = Matrix::zero(a.n);
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::size_t k = 0; k < a.n; ++k) {
      const std::int64_t aik = a.at(i, k);
      for (std::size_t j = 0; j < a.n; ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return c;
}

MatmulResult matmul_teams(const Matrix& a, const Matrix& b, int teams,
                          bool blocked, rt::TraceLog* trace) {
  assert(a.n == b.n && teams >= 1);
  const std::size_t n = a.n;
  MatmulResult result;
  result.product = Matrix::zero(n);
  std::atomic<std::int64_t> fetches{0};
  std::mutex write_mutex;

  const std::size_t rows_per_team =
      (n + static_cast<std::size_t>(teams) - 1) /
      static_cast<std::size_t>(teams);

  auto body = [&](rt::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::size_t lo = std::min(n, rank * rows_per_team);
    const std::size_t hi = std::min(n, lo + rows_per_team);
    std::vector<std::int64_t> block((hi - lo) * n, 0);

    if (blocked) {
      // Fetch each needed strip once: our row strip of A, all of B column
      // by column (n + (hi-lo) walks), then compute from the local copy.
      const std::int64_t walk_count =
          static_cast<std::int64_t>(hi - lo) + static_cast<std::int64_t>(n);
      fetches.fetch_add(walk_count, std::memory_order_relaxed);
      comm.work(walk_count * 2);  // walking to the wall is slow
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
          const std::int64_t aik = a.at(i, k);
          for (std::size_t j = 0; j < n; ++j) {
            block[(i - lo) * n + j] += aik * b.at(k, j);
          }
        }
      }
      comm.work(static_cast<std::int64_t>((hi - lo) * n * n));
    } else {
      // Naive first round: every result element fetches its row and its
      // column strip again.
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          fetches.fetch_add(2, std::memory_order_relaxed);
          comm.work(2 * 2);
          std::int64_t acc = 0;
          for (std::size_t k = 0; k < n; ++k) {
            acc += a.at(i, k) * b.at(k, j);
          }
          comm.work(static_cast<std::int64_t>(n));
          block[(i - lo) * n + j] = acc;
        }
      }
    }
    if (trace != nullptr) {
      comm.log("fills result rows " + std::to_string(lo) + ".." +
               std::to_string(hi));
    }
    {
      std::lock_guard lock(write_mutex);
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          result.product.at(i, j) = block[(i - lo) * n + j];
        }
      }
    }
    comm.barrier();
  };
  rt::ClassroomResult run = rt::Classroom::run(teams, body, {}, trace);
  result.cost = run.cost;
  result.strip_fetches = fetches.load();
  return result;
}

// --- CoinFlipMonteCarlo ----------------------------------------------------------------

MonteCarloResult coin_flip_monte_carlo(std::int64_t flips_per_student,
                                       int students, std::uint64_t seed) {
  assert(students >= 1 && flips_per_student >= 1);
  MonteCarloResult result;
  std::int64_t total_heads = 0;

  auto body = [&](rt::Comm& comm) {
    Rng rng(seed + static_cast<std::uint64_t>(comm.rank()) * 7919u);
    std::int64_t both = 0;
    for (std::int64_t f = 0; f < flips_per_student; ++f) {
      comm.work(1);
      const bool heads1 = rng.chance(0.5);
      const bool heads2 = rng.chance(0.5);
      if (heads1 && heads2) ++both;
    }
    std::int64_t pooled = comm.reduce(
        0, both, [](std::int64_t a, std::int64_t b) { return a + b; });
    if (comm.rank() == 0) total_heads = pooled;
  };
  rt::ClassroomResult run = rt::Classroom::run(students, body);
  result.flips = flips_per_student * students;
  result.both_heads = total_heads;
  result.estimate = static_cast<double>(total_heads) /
                    static_cast<double>(result.flips);
  result.error = std::abs(result.estimate - 0.25);
  result.cost = run.cost;
  return result;
}

// --- BallotCounting ----------------------------------------------------------------------

BallotResult ballot_counting(std::span<const std::int64_t> ballots,
                             int counters, rt::TraceLog* trace) {
  assert(counters >= 1);
  BallotResult result;
  for (int c = counters; c > 1; c >>= 1) ++result.combine_rounds;
  std::vector<std::int64_t> box(ballots.begin(), ballots.end());
  std::int64_t total_a = 0;
  std::int64_t total_b = 0;

  auto body = [&](rt::Comm& comm) {
    std::vector<std::int64_t> pile = comm.scatter(0, box);
    std::int64_t a = 0;
    std::int64_t b = 0;
    for (std::int64_t ballot : pile) {
      comm.work(1);
      if (ballot == 0) {
        ++a;
      } else {
        ++b;
      }
    }
    if (trace != nullptr) {
      comm.log("counts a pile: " + std::to_string(a) + " for A, " +
               std::to_string(b) + " for B");
    }
    std::int64_t sum_a = comm.reduce(
        0, a, [](std::int64_t x, std::int64_t y) { return x + y; });
    std::int64_t sum_b = comm.reduce(
        0, b, [](std::int64_t x, std::int64_t y) { return x + y; });
    if (comm.rank() == 0) {
      total_a = sum_a;
      total_b = sum_b;
      if (trace != nullptr) {
        comm.log("announces the tally: A=" + std::to_string(sum_a) +
                 ", B=" + std::to_string(sum_b));
      }
    }
  };
  rt::ClassroomResult run = rt::Classroom::run(counters, body, {}, trace);
  result.votes_a = total_a;
  result.votes_b = total_b;
  result.cost = run.cost;
  return result;
}

}  // namespace pdcu::act
