// The environment block of every result and the host calibration behind it.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "pdcu/activities/stencil.hpp"

// PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE and PERFBENCH_CXX_FLAGS come
// from CMakeLists.txt.

namespace perfbench {

namespace {

/// A fixed amount of dependent integer work (xorshift steps) that touches
/// no memory, so its rate measures how much CPU a thread really gets.
std::uint64_t spin(std::uint64_t steps, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double spin_seconds(unsigned threads, std::uint64_t steps) {
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> workers;
  const std::uint64_t start = now_ns();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] { sink += spin(steps, t + 1); });
  }
  for (auto& worker : workers) worker.join();
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  // The highest allowed CPU: CPU 0 tends to take the most interrupts.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

double effective_parallelism() {
  constexpr std::uint64_t steps = 20'000'000;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const double one = spin_seconds(1, steps);
  const double all = spin_seconds(n, steps);
  return static_cast<double>(n) * one / all;
}

std::string env_json() {
  std::string out = "{\"env\": {";
  out += "\"compiler\": " + json_quote(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_quote(PERFBENCH_BUILD_TYPE);
  out += ", \"flags\": " + json_quote(PERFBENCH_CXX_FLAGS);
  out += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_kernel\": " +
         json_quote(pdcu::act::kernel_name(pdcu::act::best_simd_kernel()));
  out += ", \"avx2_dispatched\": ";
  out += pdcu::act::best_simd_kernel() == pdcu::act::LifeKernel::kAvx2
             ? "true"
             : "false";
  out += ", \"effective_parallelism\": " + json_number(effective_parallelism());
  out += "}}";
  return out;
}

}  // namespace perfbench
