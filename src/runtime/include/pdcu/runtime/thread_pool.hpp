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
