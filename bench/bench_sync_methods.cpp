// IntersectionSynchronization (Chesebrough & Turner): wall-clock comparison
// of the four traffic-control disciplines on real threads, plus the ticket
// strategies. Shapes, not absolute numbers, are the deliverable.
#include <benchmark/benchmark.h>

#include "pdcu/activities/races.hpp"

namespace {

void BM_Intersection(benchmark::State& state) {
  const auto control =
      static_cast<pdcu::act::IntersectionControl>(state.range(0));
  const int cars = static_cast<int>(state.range(1));
  bool exclusion = true;
  for (auto _ : state) {
    auto result = pdcu::act::run_intersection(cars, 25, control);
    exclusion = exclusion && result.mutual_exclusion_held;
    benchmark::DoNotOptimize(result);
  }
  state.counters["exclusion_held"] = exclusion ? 1 : 0;
  state.SetItemsProcessed(state.iterations() * cars * 25);
}
BENCHMARK(BM_Intersection)
    ->ArgsProduct({{0, 1, 2, 3}, {2, 4}})
    ->ArgNames({"control", "cars"})
    ->Unit(benchmark::kMillisecond);

void BM_TicketStrategies(benchmark::State& state) {
  const auto strategy =
      static_cast<pdcu::act::TicketStrategy>(state.range(0));
  int double_sold = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto result = pdcu::act::sell_tickets(128, 4, strategy, seed++);
    double_sold += result.double_sold_seats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["double_sold_total"] = double_sold;
}
BENCHMARK(BM_TicketStrategies)
    ->Arg(0)  // kNoCoordination (one seeded schedule, no threads; double sales)
    ->Arg(1)  // kCoarseLock
    ->Arg(2)  // kPerSeatLock
    ->Arg(3)  // kOptimistic
    ->ArgNames({"strategy"})
    ->Unit(benchmark::kMillisecond);

void BM_DinnerPartyWindow(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = pdcu::act::dinner_party(3, 2, 40, capacity);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DinnerPartyWindow)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->ArgNames({"window"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
