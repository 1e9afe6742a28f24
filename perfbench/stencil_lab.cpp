// stencil_lab: the compute-bound path. A seeded Game of Life torus larger
// than one core's L2 runs through every host kernel and the classroom
// halo-exchange runtime; every result is checked against the serial
// oracle and the analytic halo-message count.
#include <memory>
#include <thread>

#include "bench.hpp"
#include "pdcu/activities/stencil.hpp"
#include "pdcu/runtime/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace act = pdcu::act;
namespace rt = pdcu::rt;

/// 4 MiB of cells: twice a 2 MiB L2 (a Xeon core's), so every generation
/// streams the grid from beyond L2.
constexpr std::size_t kSide = 2048;
/// Generations compared against the serial oracle per kernel.
constexpr int kCheckGenerations = 4;
constexpr int kClassroomRanks = 4;
constexpr int kClassroomGenerations = 8;

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Per-generation wall times of `kernel`, stepping until `seconds` pass.
std::vector<double> generation_times_us(act::LifeGrid grid,
                                        act::LifeKernel kernel,
                                        rt::ThreadPool* pool, double seconds,
                                        SpanLog* spans) {
  std::vector<double> times;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end) {
    const std::uint64_t t0 = now_ns();
    grid = act::life_step(grid, kernel, pool);
    const std::uint64_t t1 = now_ns();
    if (spans != nullptr) spans->add("stencil.generation", 0, t0, t1);
    times.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return times;
}

struct Lab {
  act::LifeGrid start;
  act::LifeGrid oracle;  ///< kCheckGenerations serial steps of `start`
  std::unique_ptr<rt::ThreadPool> pool;
};

Lab set_up(std::uint64_t seed) {
  Lab lab;
  lab.pool = std::make_unique<rt::ThreadPool>(host_threads());
  lab.start = act::LifeGrid::random(kSide, kSide, seed);
  lab.oracle = act::life_run(lab.start, kCheckGenerations,
                             act::LifeKernel::kSerial);
  return lab;
}

/// Every kernel bit-identical to the serial oracle; the classroom run's
/// grid identical to serial steps and its halo messages the analytic count.
void check_kernels(const Lab& lab, Outcome& out) {
  for (const auto kernel : {act::LifeKernel::kTiled, act::LifeKernel::kAutovec,
                            act::LifeKernel::kAvx2}) {
    out.check(act::life_run(lab.start, kCheckGenerations, kernel,
                            lab.pool.get()) == lab.oracle,
              std::string(act::kernel_name(kernel)) +
                  " kernel differs from the serial oracle");
  }
  const auto classroom = act::stencil_classroom(lab.start, kClassroomRanks,
                                                kCheckGenerations);
  out.check(classroom.ok() && classroom.grid == lab.oracle,
            "classroom grid differs from the serial oracle");
  out.check(classroom.halo_messages ==
                act::expected_halo_messages(classroom.ranks, kCheckGenerations),
            "classroom halo messages differ from the analytic count");
}

}  // namespace

void stencil_layers(std::size_t side, int generations, std::uint64_t seed,
                    Outcome& out) {
  const act::LifeGrid start = act::LifeGrid::random(side, side, seed);
  rt::ThreadPool pool(host_threads());
  const double cells = static_cast<double>(side * side);
  act::LifeGrid reference;
  double serial = 0.0;
  const auto rate = [&](act::LifeKernel kernel) {
    act::LifeGrid grid = start;
    std::vector<double> times;
    for (int g = 0; g < generations; ++g) {
      const std::uint64_t t0 = now_ns();
      grid = act::life_step(grid, kernel, &pool);
      times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    if (kernel == act::LifeKernel::kSerial) {
      reference = grid;
    } else {
      out.check(grid == reference, std::string(act::kernel_name(kernel)) +
                                       " kernel differs from serial");
    }
    return cells / median(times);
  };
  serial = rate(act::LifeKernel::kSerial);
  const double tiled = rate(act::LifeKernel::kTiled);
  out.add("stencil.serial_cells_per_s", serial, "cells/s");
  out.add("stencil.tiled_cells_per_s", tiled, "cells/s");
  out.add("stencil.autovec_cells_per_s", rate(act::LifeKernel::kAutovec),
          "cells/s");
  out.add("stencil.avx2_cells_per_s", rate(act::LifeKernel::kAvx2),
          "cells/s");
  out.add("stencil.simd_cells_per_s", rate(act::best_simd_kernel()),
          "cells/s");
  out.add("runtime.tiled_speedup", tiled / serial, "x");
  // One byte read and one written per cell; the neighbour rows come from
  // cache (computed, not measured).
  out.add("stencil.bytes_per_gen", 2.0 * cells, "bytes");

  const std::uint64_t t0 = now_ns();
  const auto classroom =
      act::stencil_classroom(start, kClassroomRanks, kClassroomGenerations);
  const double run_ms = static_cast<double>(now_ns() - t0) / 1e6;
  out.check(classroom.ok() &&
                classroom.grid == act::life_run(start, kClassroomGenerations,
                                                act::LifeKernel::kSerial),
            "classroom grid differs from serial");
  out.check(classroom.halo_messages ==
                act::expected_halo_messages(classroom.ranks,
                                            kClassroomGenerations),
            "classroom halo messages differ from the analytic count");
  out.add("stencil.halo_messages",
          static_cast<double>(classroom.halo_messages), "count");
  out.add("classroom.virtual_speedup", classroom.speedup_vs_serial, "x");
  out.add("classroom.run_ms", run_ms, "ms");
  out.add("runtime.effective_parallelism", effective_parallelism(), "cores");
}

Outcome run_stencil_lab(const RunConfig& config) {
  Outcome out;
  // The untraced run, pool included, runs on one CPU: the cores a shared VM
  // really gives a 4-thread pool changed between 1 and 4 from run to run,
  // which made the tiled figure bimodal. On one CPU it measures the tiled
  // kernel and the pool's fork-join cost; the traced run reports the
  // parallel speedup (runtime.tiled_speedup) with every CPU.
  std::unique_ptr<OneCpu> pin;
  if (!config.trace) pin = std::make_unique<OneCpu>();
  Lab lab;
  const Timed setup =
      median_setup_s([&] { lab = Lab{}; },
                     [&] { lab = set_up(config.seed); }, config.trace);
  check_kernels(lab, out);
  const act::LifeKernel simd = act::best_simd_kernel();
  const double cells = static_cast<double>(kSide * kSide);

  if (config.trace) {
    SpanLog spans;
    std::vector<double> plain = generation_times_us(
        lab.start, simd, lab.pool.get(), config.seconds / 4.0, nullptr);
    std::vector<double> traced = generation_times_us(
        lab.start, simd, lab.pool.get(), config.seconds / 4.0, &spans);
    out.add("trace.overhead_p50_us",
            percentile(traced, 0.50) - percentile(plain, 0.50), "us");
    out.add("trace.overhead_p99_us",
            percentile(traced, 0.99) - percentile(plain, 0.99), "us");
    stencil_layers(kSide, 12, config.seed, out);
    // The serving layers, from a short traced browse phase on the built-in
    // curation (this workload serves nothing itself).
    Outcome serving;
    {
      const OneCpu pin;
      serving_layers_probe(config, serving);
    }
    for (auto& metric : serving.metrics) {
      if (metric.name.starts_with("trace.")) continue;
      out.metrics.push_back(std::move(metric));
    }
    out.attempted += serving.attempted;
    out.failed += serving.failed;
    out.errors.insert(out.errors.end(), serving.errors.begin(),
                      serving.errors.end());
    out.add("trace.spans", static_cast<double>(spans.size()), "count");
    spans.write(config.work_dir / "stencil_lab.stencil_spans.jsonl");
    return out;
  }

  // One-second cycles: 0.75 s of the SIMD kernel, then the streaming probe
  // (the SIMD kernel streams the grid from beyond L2, as the probe does),
  // 0.25 s of the tiled kernel, then the spin probe (the tiled kernel is
  // bound by the core). Each chunk gives its kernel's median generation,
  // scaled by the slowdown around the chunk (see Probes); the run reports
  // the mean over cycles, which moves smoothly with the share of time the
  // host ran slow (see Cycles in serving.cpp).
  std::vector<double> simd_us, tiled_rate, simd_slowdown, tiled_slowdown;
  std::uint64_t simd_generations = 0;
  std::uint64_t tiled_generations = 0;
  Probes memory(Probe::kStream);
  Probes core(Probe::kSpin);
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(config.seconds * 1e9);
  while (now_ns() < end) {
    const auto simd_times =
        generation_times_us(lab.start, simd, lab.pool.get(), 0.75, nullptr);
    simd_slowdown.push_back(memory.after_chunk());
    const auto tiled_times = generation_times_us(
        lab.start, act::LifeKernel::kTiled, lab.pool.get(), 0.25, nullptr);
    tiled_slowdown.push_back(core.after_chunk());
    simd_generations += simd_times.size();
    tiled_generations += tiled_times.size();
    simd_us.push_back(median(simd_times));
    tiled_rate.push_back(cells / (median(tiled_times) / 1e6));
  }
  std::vector<double> simd_scaled, tiled_scaled;
  for (std::size_t k = 0; k < simd_us.size(); ++k) {
    simd_scaled.push_back(simd_us[k] / simd_slowdown[k]);
    tiled_scaled.push_back(tiled_rate[k] * tiled_slowdown[k]);
  }
  out.uncorrected.push_back({"latency_p50_us", mean(simd_us), "us"});
  out.uncorrected.push_back({"throughput_per_s", mean(tiled_rate), "1/s"});
  out.uncorrected.push_back({"host_slowdown", mean(simd_slowdown), "x"});
  out.add("setup_s", setup.value, "s", setup.samples);
  out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  out.add("latency_p50_us", mean(simd_scaled), "us", simd_generations);
  out.add("throughput_per_s", mean(tiled_scaled), "1/s", tiled_generations);
  return out;
}

}  // namespace perfbench
