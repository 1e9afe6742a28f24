// A fixed-size thread pool with futures and a blocked-range parallel_for.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "pdcu/runtime/channel.hpp"

namespace pdcu::rt {

/// Fixed worker pool. Tasks are std::function<void()>; submit() returns a
/// future. Destruction drains outstanding tasks, then joins.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Schedules a callable; the future carries its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    auto future = task->get_future();
    tasks_.send([task] { (*task)(); });
    return future;
  }

  /// Splits [begin, end) into roughly equal blocks, one task per worker,
  /// and blocks until all complete. body(block_begin, block_end) runs on
  /// pool threads.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Blocked parallel reduction: `leaf(lo, hi)` reduces one block, `op`
  /// combines block results (must be associative), `identity` seeds the
  /// fold. Deterministic: blocks combine in index order.
  template <typename T, typename Leaf, typename Op>
  T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                    Leaf&& leaf, Op&& op) {
    if (begin >= end) return identity;
    const std::size_t n = end - begin;
    const std::size_t blocks = std::min<std::size_t>(size(), n);
    const std::size_t chunk = (n + blocks - 1) / blocks;
    std::vector<std::future<T>> futures;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::size_t lo = begin + b * chunk;
      std::size_t hi = std::min(end, lo + chunk);
      if (lo >= hi) break;
      futures.push_back(submit([&leaf, lo, hi] { return leaf(lo, hi); }));
    }
    T result = identity;
    // The running result moves into op: a by-value op (a merge of block
    // maps) then extends it in place instead of copying it per block.
    for (auto& future : futures) result = op(std::move(result), future.get());
    return result;
  }

  /// Blocked inclusive scan (Blelloch-style two passes over blocks):
  /// values[i] becomes op(values[begin], ..., values[i]). Deterministic.
  template <typename T, typename Op>
  void parallel_scan(std::vector<T>& values, T identity, Op&& op) {
    const std::size_t n = values.size();
    if (n == 0) return;
    const std::size_t blocks = std::min<std::size_t>(size(), n);
    const std::size_t chunk = (n + blocks - 1) / blocks;

    // Pass 1: scan each block locally, collect block totals.
    std::vector<T> block_total(blocks, identity);
    parallel_for(0, blocks, [&](std::size_t block_lo, std::size_t block_hi) {
      for (std::size_t b = block_lo; b < block_hi; ++b) {
        std::size_t lo = b * chunk;
        std::size_t hi = std::min(n, lo + chunk);
        T acc = identity;
        for (std::size_t i = lo; i < hi; ++i) {
          acc = op(acc, values[i]);
          values[i] = acc;
        }
        block_total[b] = acc;
      }
    });

    // Serial exclusive scan of the (few) block totals.
    std::vector<T> offset(blocks, identity);
    T running = identity;
    for (std::size_t b = 0; b < blocks; ++b) {
      offset[b] = running;
      running = op(running, block_total[b]);
    }

    // Pass 2: add each block's offset.
    parallel_for(0, blocks, [&](std::size_t block_lo, std::size_t block_hi) {
      for (std::size_t b = block_lo; b < block_hi; ++b) {
        std::size_t lo = b * chunk;
        std::size_t hi = std::min(n, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) {
          values[i] = op(offset[b], values[i]);
        }
      }
    });
  }

  /// Parallel merge sort: blocks sort concurrently, then merge pairwise
  /// (log(blocks) sequential merge levels, each level's merges running
  /// concurrently). Stable within blocks; deterministic result.
  template <typename T, typename Less = std::less<T>>
  void parallel_sort(std::vector<T>& values, Less less = {}) {
    const std::size_t n = values.size();
    if (n < 2) return;
    std::size_t blocks = std::min<std::size_t>(size(), n);
    const std::size_t chunk = (n + blocks - 1) / blocks;

    // Block boundaries (the last block may be short).
    std::vector<std::size_t> bounds;
    for (std::size_t lo = 0; lo < n; lo += chunk) bounds.push_back(lo);
    bounds.push_back(n);

    parallel_for(0, bounds.size() - 1, [&](std::size_t b_lo,
                                           std::size_t b_hi) {
      for (std::size_t b = b_lo; b < b_hi; ++b) {
        std::sort(values.begin() + static_cast<std::ptrdiff_t>(bounds[b]),
                  values.begin() + static_cast<std::ptrdiff_t>(bounds[b + 1]),
                  less);
      }
    });

    // Merge adjacent runs until one remains.
    std::vector<T> buffer(n);
    while (bounds.size() > 2) {
      std::vector<std::size_t> next_bounds;
      const std::size_t runs = bounds.size() - 1;
      std::vector<std::future<void>> merges;
      for (std::size_t r = 0; r + 1 < runs; r += 2) {
        const std::size_t lo = bounds[r];
        const std::size_t mid = bounds[r + 1];
        const std::size_t hi = bounds[r + 2];
        next_bounds.push_back(lo);
        merges.push_back(submit([&values, &buffer, &less, lo, mid, hi] {
          std::merge(values.begin() + static_cast<std::ptrdiff_t>(lo),
                     values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.begin() + static_cast<std::ptrdiff_t>(hi),
                     buffer.begin() + static_cast<std::ptrdiff_t>(lo), less);
          std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                    buffer.begin() + static_cast<std::ptrdiff_t>(hi),
                    values.begin() + static_cast<std::ptrdiff_t>(lo));
        }));
      }
      if (runs % 2 == 1) next_bounds.push_back(bounds[runs - 1]);
      next_bounds.push_back(n);
      for (auto& merge : merges) merge.get();
      bounds = std::move(next_bounds);
    }
  }

 private:
  void worker_loop();

  Channel<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

/// The shared, process-lifetime pool (hardware_concurrency workers,
/// created on first use). Modules that need parallelism but have no
/// caller-provided pool — the site builder, the search indexer, the
/// repository loader, the server's connection layer — share this instance
/// instead of constructing a private pool per call. Tasks running on the
/// pool must not block on nested parallel_for/submit against the same
/// pool (they would occupy the very workers they wait for).
ThreadPool& default_pool();

}  // namespace pdcu::rt
