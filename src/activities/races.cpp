#include "pdcu/activities/races.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "pdcu/runtime/scheduler.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::act {

namespace {

/// A small busy delay that widens the optimistic modes' window between the
/// check and the compare-exchange, so their retry path gets exercised.
void think(Rng& rng) {
  const auto spins = rng.below(64);
  for (std::uint64_t i = 0; i < spins; ++i) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  std::this_thread::yield();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- SweeteningTheJuice -------------------------------------------------------

namespace {

/// The classroom bug as a two-step machine per robot: one step reads the
/// glass and checks it against the target, the robot's next step writes
/// `seen + 1`. The seeded schedule decides who steps in between.
JuiceResult unsynchronized_spoonfuls(int robots, int target,
                                     std::uint64_t seed) {
  struct Robot {
    int seen = -1;  ///< -1: about to read; else the sweetness it saw
    bool done = false;
  };
  std::vector<Robot> crew(static_cast<std::size_t>(robots));
  int glass = 0;
  int added = 0;
  int finished = 0;
  auto step = [&](std::size_t id) {
    Robot& robot = crew[id];
    if (robot.done) return;
    if (robot.seen < 0) {
      robot.seen = glass;
      if (robot.seen >= target) {
        robot.done = true;
        ++finished;
      }
      return;
    }
    glass = robot.seen + 1;  // may overwrite a spoonful another robot added
    ++added;
    robot.seen = -1;
  };
  // A lost update can lower the glass again, so a run has no fixed length;
  // the budget only cuts off a vanishingly unlikely endless ping-pong.
  Rng rng(seed);
  rt::run_schedule(crew.size(), step, [&] { return finished == robots; },
                   rt::SchedulePolicy::kRandom, rng, std::size_t{1} << 20);
  return {.final_sweetness = glass, .spoonfuls_added = added};
}

/// The coordinated modes on real threads: correct under every
/// interleaving, so the OS may pick any.
JuiceResult coordinated_spoonfuls(int robots, int target, JuiceMode mode,
                                  std::uint64_t seed) {
  std::atomic<int> sweetness{0};
  std::atomic<int> added{0};
  std::mutex glass;

  auto robot = [&](int id) {
    Rng rng(seed * 1315423911u + static_cast<std::uint64_t>(id));
    while (true) {
      if (mode == JuiceMode::kMutex) {
        std::lock_guard lock(glass);
        if (sweetness.load(std::memory_order_relaxed) >= target) return;
        sweetness.fetch_add(1, std::memory_order_relaxed);
        added.fetch_add(1, std::memory_order_relaxed);
      } else {
        int seen = sweetness.load(std::memory_order_relaxed);
        if (seen >= target) return;
        think(rng);
        if (sweetness.compare_exchange_strong(seen, seen + 1)) {
          added.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < robots; ++i) threads.emplace_back(robot, i);
  for (auto& t : threads) t.join();
  return {.final_sweetness = sweetness.load(),
          .spoonfuls_added = added.load()};
}

}  // namespace

JuiceResult sweeten_juice(int robots, int target, JuiceMode mode,
                          std::uint64_t seed) {
  JuiceResult result = mode == JuiceMode::kUnsynchronized
                           ? unsynchronized_spoonfuls(robots, target, seed)
                           : coordinated_spoonfuls(robots, target, mode, seed);
  result.target = target;
  // Unsynchronized, a lost update leaves the glass reading less than the
  // sugar actually added, so the classroom moral is told by the spoonfuls
  // added exceeding the target, not by the glass.
  result.oversweetened = result.spoonfuls_added > target;
  return result;
}

int count_oversweetened(int robots, int target, int trials,
                        std::uint64_t seed) {
  int bad = 0;
  for (int t = 0; t < trials; ++t) {
    JuiceResult r = sweeten_juice(robots, target, JuiceMode::kUnsynchronized,
                                  seed + static_cast<std::uint64_t>(t));
    if (r.oversweetened) ++bad;
  }
  return bad;
}

// --- ConcertTickets -------------------------------------------------------------

namespace {

/// Each clerk scans the seat map from a random start and sells the first
/// seat that looks free; a clerk that finds none in a full scan goes home.
/// Uncoordinated, checking seat i is one step and selling it is the
/// clerk's next step, on the seeded schedule. Returns sales per seat.
std::vector<int> sell_uncoordinated(int seats, int clerks,
                                    std::uint64_t seed) {
  struct Clerk {
    Rng rng;
    std::size_t start = 0;
    int checked = 0;   ///< seats checked in the current scan
    int holding = -1;  ///< seat that looked free, sale pending
    bool done = false;
  };
  std::vector<Clerk> office;
  for (int id = 0; id < clerks; ++id) {
    office.push_back(
        {Rng(seed * 2654435761u + static_cast<std::uint64_t>(id))});
  }
  std::vector<int> sold(static_cast<std::size_t>(seats), 0);
  if (seats == 0) return sold;
  int finished = 0;
  auto step = [&](std::size_t id) {
    Clerk& clerk = office[id];
    if (clerk.done) return;
    if (clerk.holding >= 0) {
      ++sold[static_cast<std::size_t>(clerk.holding)];  // take the money
      clerk.holding = -1;
      clerk.checked = 0;
      return;
    }
    if (clerk.checked == 0) {
      clerk.start = clerk.rng.below(static_cast<std::uint64_t>(seats));
    }
    const std::size_t i =
        (clerk.start + static_cast<std::size_t>(clerk.checked)) %
        static_cast<std::size_t>(seats);
    ++clerk.checked;
    if (sold[i] == 0) {
      clerk.holding = static_cast<int>(i);
    } else if (clerk.checked == seats) {
      clerk.done = true;  // no seat appears free anymore
      ++finished;
    }
  };
  Rng rng(seed);
  rt::run_schedule(office.size(), step, [&] { return finished == clerks; },
                   rt::SchedulePolicy::kRandom, rng,
                   std::numeric_limits<std::size_t>::max());
  return sold;
}

/// The coordinated strategies on real threads; each sells every seat
/// exactly once under any interleaving the OS picks.
std::vector<int> sell_coordinated(int seats, int clerks,
                                  TicketStrategy strategy,
                                  std::uint64_t seed) {
  // state[i]: number of times seat i has been sold (0 = free).
  std::vector<std::atomic<int>> state(static_cast<std::size_t>(seats));
  for (auto& s : state) s.store(0);
  std::vector<std::atomic_flag> seat_locks(static_cast<std::size_t>(seats));
  std::mutex box_office;

  auto clerk = [&](int id) {
    Rng rng(seed * 2654435761u + static_cast<std::uint64_t>(id));
    // Each clerk scans from a random start so clerks collide on seats.
    while (true) {
      bool sold_one = false;
      std::size_t start = rng.below(static_cast<std::uint64_t>(seats));
      for (int k = 0; k < seats && !sold_one; ++k) {
        std::size_t i = (start + static_cast<std::size_t>(k)) %
                        static_cast<std::size_t>(seats);
        switch (strategy) {
          case TicketStrategy::kCoarseLock: {
            std::lock_guard lock(box_office);
            if (state[i].load(std::memory_order_relaxed) == 0) {
              state[i].fetch_add(1, std::memory_order_relaxed);
              sold_one = true;
            }
            break;
          }
          case TicketStrategy::kPerSeatLock: {
            if (state[i].load(std::memory_order_relaxed) == 0 &&
                !seat_locks[i].test_and_set(std::memory_order_acquire)) {
              // The flag is the per-seat sale record; set wins the seat.
              state[i].fetch_add(1, std::memory_order_relaxed);
              sold_one = true;
            }
            break;
          }
          case TicketStrategy::kOptimistic: {
            int expected = 0;
            if (state[i].load(std::memory_order_relaxed) == 0) {
              think(rng);
              sold_one = state[i].compare_exchange_strong(expected, 1);
            }
            break;
          }
          case TicketStrategy::kNoCoordination:
            break;  // seeded, see sell_uncoordinated
        }
      }
      if (!sold_one) return;  // no seat appears free anymore
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < clerks; ++i) threads.emplace_back(clerk, i);
  for (auto& t : threads) t.join();
  std::vector<int> sold;
  for (auto& s : state) sold.push_back(s.load());
  return sold;
}

}  // namespace

TicketResult sell_tickets(int seats, int clerks, TicketStrategy strategy,
                          std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  const std::vector<int> sold =
      strategy == TicketStrategy::kNoCoordination
          ? sell_uncoordinated(seats, clerks, seed)
          : sell_coordinated(seats, clerks, strategy, seed);
  const std::int64_t t1 = now_ns();

  TicketResult result;
  result.seats = seats;
  result.clerks = clerks;
  result.nanoseconds = t1 - t0;
  for (int times : sold) {
    result.tickets_issued += times;
    if (times > 1) ++result.double_sold_seats;
  }
  result.oversold = result.double_sold_seats > 0 ||
                    result.tickets_issued > result.seats;
  return result;
}

// --- IntersectionSynchronization -------------------------------------------------

IntersectionResult run_intersection(int cars, int crossings_per_car,
                                    IntersectionControl control) {
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<int> crossings(static_cast<std::size_t>(cars), 0);

  // The checked critical action: enter, verify exclusivity, leave.
  auto cross = [&](int id) {
    if (inside.fetch_add(1) != 0) overlap.store(true);
    crossings[static_cast<std::size_t>(id)] += 1;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    inside.fetch_sub(1);
  };

  std::atomic_flag stop_sign = ATOMIC_FLAG_INIT;
  std::atomic<int> ticket_next{0};
  std::atomic<int> ticket_serving{0};
  std::mutex officer_mutex;
  std::condition_variable officer_signal;
  bool intersection_free = true;
  std::atomic<int> token_holder{0};

  auto car = [&](int id) {
    for (int k = 0; k < crossings_per_car; ++k) {
      switch (control) {
        case IntersectionControl::kStopSign: {
          while (stop_sign.test_and_set(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          cross(id);
          stop_sign.clear(std::memory_order_release);
          break;
        }
        case IntersectionControl::kTrafficLight: {
          const int my_turn = ticket_next.fetch_add(1);
          while (ticket_serving.load(std::memory_order_acquire) != my_turn) {
            std::this_thread::yield();
          }
          cross(id);
          ticket_serving.fetch_add(1, std::memory_order_release);
          break;
        }
        case IntersectionControl::kPoliceOfficer: {
          std::unique_lock lock(officer_mutex);
          officer_signal.wait(lock, [&] { return intersection_free; });
          intersection_free = false;
          lock.unlock();
          cross(id);
          lock.lock();
          intersection_free = true;
          lock.unlock();
          officer_signal.notify_one();
          break;
        }
        case IntersectionControl::kTokenRoad: {
          while (token_holder.load(std::memory_order_acquire) != id) {
            std::this_thread::yield();
          }
          cross(id);
          token_holder.store((id + 1) % cars, std::memory_order_release);
          break;
        }
      }
    }
  };

  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (int i = 0; i < cars; ++i) threads.emplace_back(car, i);
  for (auto& t : threads) t.join();
  const std::int64_t t1 = now_ns();

  IntersectionResult result;
  result.mutual_exclusion_held = !overlap.load();
  result.nanoseconds = t1 - t0;
  result.max_crossings_by_one_car = 0;
  result.min_crossings_by_one_car = crossings_per_car;
  for (int c : crossings) {
    result.total_crossings += c;
    result.max_crossings_by_one_car =
        std::max(result.max_crossings_by_one_car, c);
    result.min_crossings_by_one_car =
        std::min(result.min_crossings_by_one_car, c);
  }
  return result;
}

// --- FastAnswerVsSharedAccess ------------------------------------------------------

TwoStationsResult two_stations(int students, int work_items,
                               std::uint64_t seed) {
  TwoStationsResult result;
  Rng rng(seed);

  // Station A: count face cards across `work_items` cards, sliced evenly.
  // One card inspection = 1 unit. Perfectly parallel plus a tally round.
  std::int64_t faces = 0;
  for (int i = 0; i < work_items; ++i) {
    if (rng.below(13) < 3) ++faces;  // J/Q/K of any suit
  }
  result.station_a_count = faces;
  auto station_a = [&](int p) {
    const std::int64_t slice = (work_items + p - 1) / p;
    return slice + (p > 1 ? 1 : 0);  // counting + shouting the subtotal
  };
  result.station_a_makespan = station_a(students);
  result.station_a_speedup =
      static_cast<double>(station_a(1)) /
      static_cast<double>(result.station_a_makespan);

  // Station B: each packet takes 3 units of parallel assembly plus 1 unit
  // at the single stapler. The stapler serializes: its total demand is a
  // floor on the makespan (assembly overlaps with stapling of earlier
  // packets).
  auto station_b = [&](int p) {
    const std::int64_t assembly = (work_items + p - 1) / p * 3;
    const std::int64_t stapling = work_items;
    return std::max(assembly + 1, stapling + 3);
  };
  result.station_b_makespan = station_b(students);
  result.station_b_speedup =
      static_cast<double>(station_b(1)) /
      static_cast<double>(result.station_b_makespan);
  return result;
}

// --- DinnerPartyProducers ---------------------------------------------------------

DinnerResult dinner_party(int cooks, int waiters, int dishes_per_cook,
                          int window_capacity) {
  std::mutex window_mutex;
  std::condition_variable window_not_full;
  std::condition_variable window_not_empty;
  std::deque<int> window;  // dish ids on the serving window
  bool kitchen_closed = false;
  int full_stalls = 0;
  int empty_stalls = 0;

  const int total_dishes = cooks * dishes_per_cook;
  std::vector<std::atomic<int>> served(
      static_cast<std::size_t>(total_dishes));
  for (auto& s : served) s.store(0);

  auto cook = [&](int id) {
    for (int d = 0; d < dishes_per_cook; ++d) {
      const int dish = id * dishes_per_cook + d;
      std::unique_lock lock(window_mutex);
      if (window.size() >= static_cast<std::size_t>(window_capacity)) {
        ++full_stalls;
        window_not_full.wait(lock, [&] {
          return window.size() < static_cast<std::size_t>(window_capacity);
        });
      }
      window.push_back(dish);
      lock.unlock();
      window_not_empty.notify_one();  // ring the dinner bell
    }
  };

  auto waiter = [&] {
    while (true) {
      std::unique_lock lock(window_mutex);
      if (window.empty() && !kitchen_closed) {
        ++empty_stalls;
        window_not_empty.wait(lock,
                              [&] { return !window.empty() || kitchen_closed; });
      }
      if (window.empty()) {
        if (kitchen_closed) return;
        continue;
      }
      const int dish = window.front();
      window.pop_front();
      lock.unlock();
      window_not_full.notify_one();
      served[static_cast<std::size_t>(dish)].fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < cooks; ++i) threads.emplace_back(cook, i);
  std::vector<std::thread> waiter_threads;
  for (int i = 0; i < waiters; ++i) waiter_threads.emplace_back(waiter);
  for (auto& t : threads) t.join();
  {
    std::lock_guard lock(window_mutex);
    kitchen_closed = true;
  }
  window_not_empty.notify_all();
  for (auto& t : waiter_threads) t.join();

  DinnerResult result;
  result.dishes_cooked = total_dishes;
  result.window_full_stalls = full_stalls;
  result.window_empty_stalls = empty_stalls;
  for (auto& s : served) {
    const int times = s.load();
    result.dishes_served += times;
    if (times != 1) result.every_dish_served_once = false;
  }
  return result;
}

}  // namespace pdcu::act
