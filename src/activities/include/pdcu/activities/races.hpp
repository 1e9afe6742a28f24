// Executable simulations of the race-condition and synchronization
// activities: SweeteningTheJuice (Ben-Ari & Kolikant), ConcertTickets
// (Kolikant; Lewandowski et al.), IntersectionSynchronization (Chesebrough
// & Turner), and DinnerPartyProducers (Andrianoff & Levine).
//
// The coordinated modes run on real std::threads: they are correct under
// every interleaving, and ThreadSanitizer checks their synchronization. The
// racy modes reproduce the classroom bug (check-then-act with a window
// between check and act) as the worksheet does: each student is a machine
// whose check and act are separate steps, driven by rt::run_schedule on a
// random schedule drawn from the seed. The seed alone picks the
// interleaving, so a racy run gives the same result on any host, under any
// load, and under a sanitizer.
#pragma once

#include <cstdint>
#include <vector>

namespace pdcu::act {

// --- SweeteningTheJuice ------------------------------------------------------

/// How the robots coordinate access to the shared glass.
enum class JuiceMode {
  kUnsynchronized,  ///< read sweetness, add in a later step (the classroom bug)
  kMutex,           ///< lock the glass around check-and-add
  kCompareExchange  ///< optimistic: re-check atomically before adding
};

struct JuiceResult {
  int target = 0;
  int final_sweetness = 0;  ///< the glass at the end; a lost update lowers it
  int spoonfuls_added = 0;
  bool oversweetened = false;  ///< spoonfuls_added > target: the race fired
};

/// `robots` robots each repeatedly run "if sweetness < target, add one
/// spoonful" until everyone observes sweetness >= target. Unsynchronized,
/// the check and the add are two steps on a schedule drawn from `seed`;
/// the coordinated modes run one thread per robot.
JuiceResult sweeten_juice(int robots, int target, JuiceMode mode,
                          std::uint64_t seed);

/// Runs `trials` unsynchronized experiments on the seeded interleavings
/// `seed`, `seed + 1`, ... and returns how many oversweetened: the share of
/// random schedules in which the race fires. The same arguments give the
/// same count on every run.
int count_oversweetened(int robots, int target, int trials,
                        std::uint64_t seed);

// --- ConcertTickets -----------------------------------------------------------

/// Box-office coordination strategy.
enum class TicketStrategy {
  kNoCoordination,  ///< clerks check-then-sell with a window (overselling)
  kCoarseLock,      ///< one lock for the whole seat map
  kPerSeatLock,     ///< one atomic flag per seat (test-and-set)
  kOptimistic       ///< CAS on the seat counter
};

struct TicketResult {
  int seats = 0;
  int clerks = 0;
  int tickets_issued = 0;    ///< total tickets handed out
  int double_sold_seats = 0; ///< seats sold to more than one customer
  bool oversold = false;
  std::int64_t nanoseconds = 0;
};

/// `clerks` clerks sell `seats` seats from a shared map until none appear
/// free. Without coordination, checking a seat and selling it are two
/// steps on a schedule drawn from `seed`; the coordinated strategies run
/// one thread per clerk.
TicketResult sell_tickets(int seats, int clerks, TicketStrategy strategy,
                          std::uint64_t seed);

// --- IntersectionSynchronization ----------------------------------------------

/// Traffic-control discipline for the shared intersection.
enum class IntersectionControl {
  kStopSign,      ///< spin on a test-and-set flag (polling)
  kTrafficLight,  ///< ticket lock: numbered turns
  kPoliceOfficer, ///< monitor: mutex + condition variable
  kTokenRoad      ///< message passing: a token circulates among cars
};

struct IntersectionResult {
  bool mutual_exclusion_held = true;  ///< never two cars inside
  int total_crossings = 0;
  int max_crossings_by_one_car = 0;
  int min_crossings_by_one_car = 0;  ///< fairness signal
  std::int64_t nanoseconds = 0;
};

/// `cars` threads each cross the intersection `crossings_per_car` times
/// under the chosen discipline; an invariant checker detects overlap.
IntersectionResult run_intersection(int cars, int crossings_per_car,
                                    IntersectionControl control);

// --- FastAnswerVsSharedAccess (Smith & Srivastava) ---------------------------

struct TwoStationsResult {
  std::int64_t station_a_makespan = 0;  ///< pure data parallelism
  std::int64_t station_b_makespan = 0;  ///< serialized by the stapler
  std::int64_t station_a_count = 0;     ///< face cards found
  double station_a_speedup = 0.0;       ///< vs one student, same station
  double station_b_speedup = 0.0;       ///< capped by the shared resource
};

/// The two-station dramatization distinguishing "more hands, faster
/// answer" from "managing access to a scarce shared resource" (the PF_1
/// outcome). Station A: `students` count face cards in disjoint deck
/// slices (embarrassingly parallel). Station B: the same students
/// assemble `work_items` packets in parallel, but every packet must pass
/// through the single shared stapler. Virtual-time makespans; the B
/// station's speedup is capped by the stapler no matter the head count.
TwoStationsResult two_stations(int students, int work_items,
                               std::uint64_t seed);

// --- DinnerPartyProducers -------------------------------------------------------

struct DinnerResult {
  int dishes_cooked = 0;
  int dishes_served = 0;
  int window_full_stalls = 0;   ///< cooks waited on a full window
  int window_empty_stalls = 0;  ///< waiters waited on an empty window
  bool every_dish_served_once = true;
};

/// `cooks` producer threads plate `dishes_per_cook` dishes each through a
/// serving window holding `window_capacity` plates; `waiters` consumer
/// threads carry them off. Condition variables are the dinner bell.
DinnerResult dinner_party(int cooks, int waiters, int dishes_per_cook,
                          int window_capacity);

}  // namespace pdcu::act
