// Race-condition demonstrations: how often the classroom bug fires as
// concurrency grows (SweeteningTheJuice, ConcertTickets), and that every
// coordinated strategy stays correct. The racy modes run on interleavings
// drawn from the seed, so every run prints the same counts; the
// coordinated ones run on real threads.
#include <cstdio>

#include "pdcu/activities/races.hpp"

namespace act = pdcu::act;

int main() {
  bool ok = true;

  std::printf("SWEETENING THE JUICE — oversweetened runs out of 40\n");
  std::printf("%8s %14s %8s %18s\n", "robots", "unsynchronized", "mutex",
              "compare-exchange");
  for (int robots : {1, 2, 4, 8}) {
    int racy = act::count_oversweetened(robots, 6, 40, 7);
    int safe_mutex = 0;
    int safe_cas = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      if (act::sweeten_juice(robots, 6, act::JuiceMode::kMutex, seed)
              .oversweetened) {
        ++safe_mutex;
      }
      if (act::sweeten_juice(robots, 6, act::JuiceMode::kCompareExchange,
                             seed)
              .oversweetened) {
        ++safe_cas;
      }
    }
    std::printf("%8d %14d %8d %18d\n", robots, racy, safe_mutex, safe_cas);
    ok = ok && safe_mutex == 0 && safe_cas == 0;
    if (robots == 1) ok = ok && racy == 0;
    if (robots >= 2) ok = ok && racy > 0;
  }

  std::printf("\nCONCERT TICKETS — 64 seats, double-sold seats (mean of 10 "
              "runs)\n");
  std::printf("%8s %16s %12s %14s %12s\n", "clerks", "no coordination",
              "coarse lock", "per-seat lock", "optimistic");
  for (int clerks : {1, 2, 4, 8}) {
    double doubles[4] = {0, 0, 0, 0};
    const act::TicketStrategy strategies[] = {
        act::TicketStrategy::kNoCoordination,
        act::TicketStrategy::kCoarseLock,
        act::TicketStrategy::kPerSeatLock,
        act::TicketStrategy::kOptimistic};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      for (int s = 0; s < 4; ++s) {
        auto result = act::sell_tickets(64, clerks, strategies[s], seed);
        doubles[s] += result.double_sold_seats / 10.0;
        if (s > 0) {
          ok = ok && !result.oversold && result.tickets_issued == 64;
        }
      }
    }
    std::printf("%8d %16.1f %12.1f %14.1f %12.1f\n", clerks, doubles[0],
                doubles[1], doubles[2], doubles[3]);
  }

  std::printf("\nCoordinated strategies never oversold; uncoordinated "
              "clerks raced: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
