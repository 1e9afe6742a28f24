// Shared declarations of the benchmark program: run configuration, the
// outcome every workload returns, and the workload entry points.
#pragma once

#include <sched.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space inside the checkout (content dirs, span files).
  std::filesystem::path work_dir;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// of an untraced run, or the per-layer metrics of a traced one.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks, for stderr
  std::vector<Metric> metrics;
  /// The host-scaled metrics as measured, before scaling, and the median
  /// host slowdown (see host_slowdown); printed beside the result.
  std::vector<Metric> uncorrected;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Records one checked operation; a false `ok` counts as a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

/// A measured value and the number of measurements behind it.
struct Timed {
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// Runs `tear_down` then a timed `set_up` at least three times, and more
/// while the timed set-ups so far took under two seconds (at most 50), so
/// cheap set-ups still report a steady median. One round when `once`.
/// Returns the median set-up wall time in seconds and the rounds run.
template <typename TearDown, typename SetUp>
Timed median_setup_s(TearDown&& tear_down, SetUp&& set_up, bool once) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.empty() ||
         (!once && (seconds.size() < 3 ||
                    (total < 2.0 && seconds.size() < 50)))) {
    tear_down();
    const std::uint64_t start = now_ns();
    set_up();
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    total += seconds.back();
  }
  return {median(seconds), seconds.size()};
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// While alive, restricts the calling thread, and every thread it creates
/// meanwhile, to one of the CPUs it may run on; the destructor gives the
/// calling thread its CPUs back. The serving stack runs this way: on a
/// shared 4-vCPU Xeon VM, a wakeup that crosses vCPUs costs 30-40 us or
/// nothing depending on host load, which made request latency bimodal from
/// run to run; on one CPU it repeats.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// The reference probes of host_slowdown.
enum class Probe {
  kLoopback,  ///< one-byte round trips over loopback TCP between two threads
  kSpin,      ///< dependent integer steps that touch no memory
  kStream,    ///< streaming reads of a buffer larger than L2
};

/// How much slower than a quiet host the calling thread's CPU runs a fixed
/// probe of the benchmark's own right now: 1 on a quiet host, 1.3 on one
/// 30% slower. On a shared 4-vCPU VM the speed the host gives a vCPU moved
/// by up to a third between runs and within them, and every timing of the
/// program moved with it. So the untraced serving and stencil runs go in
/// short chunks with a probe between them (never beside them), and each
/// chunk's figure is scaled by its slowdown (see Probes): the figures read
/// at a quiet host's speed. The probe is the benchmark's
/// code, not the program's, so a change to the program moves the figures
/// and not the probe.
double host_slowdown(Probe probe);

/// The host slowdown around consecutive timed chunks: a probe runs before
/// the first chunk and after each one, and a chunk's slowdown is the mean
/// of the probes on either side of it, so that a switch of host speed
/// inside the chunk counts in part.
class Probes {
 public:
  explicit Probes(Probe probe) : probe_(probe), last_(host_slowdown(probe)) {}
  /// Call right after each chunk: probes, and returns that chunk's slowdown.
  double after_chunk() {
    const double now = host_slowdown(probe_);
    const double around = (last_ + now) / 2.0;
    last_ = now;
    return around;
  }

 private:
  Probe probe_;
  double last_;
};

Outcome run_browse(const RunConfig& config);
Outcome run_search_corpus(const RunConfig& config);
Outcome run_author_reload(const RunConfig& config);
Outcome run_stencil_lab(const RunConfig& config);

/// The per-layer metrics of the stencil kernels, the thread pool and the
/// classroom runtime on a `side` x `side` torus (stencil_lab's own numbers
/// at full size; a small probe from the serving workloads).
void stencil_layers(std::size_t side, int generations, std::uint64_t seed,
                    Outcome& out);

/// The per-layer metrics of the serving stack on the built-in curation,
/// measured by a short traced browse phase (stencil_lab's probe).
void serving_layers_probe(const RunConfig& config, Outcome& out);

/// The environment block printed before every result: compiler, build type
/// and flags, CPU count, SIMD dispatch, and calibrated parallelism.
std::string env_json();

/// Effective parallelism: one spinning thread's work rate times nproc over
/// the rate of nproc spinning threads, from a fixed spin kernel.
double effective_parallelism();

}  // namespace perfbench
