// A fixed-size thread pool with futures and a blocked-range parallel_for.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <optional>
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

  /// Splits [begin, end) into at most size() equal blocks and runs
  /// body(block_begin, block_end) on each: one fork-join, in which the
  /// caller claims blocks alongside size()-1 helper tasks. Returns once
  /// every block has finished, then rethrows the first exception a block
  /// threw. The caller never waits for a block nobody has claimed, so a
  /// nested call from inside a pool task cannot deadlock.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Blocked parallel reduction: `leaf(lo, hi)` reduces one block, `op`
  /// combines block results (must be associative), `identity` seeds the
  /// fold. Deterministic: each block writes its own index-ordered slot and
  /// the caller combines the slots in index order.
  template <typename T, typename Leaf, typename Op>
  T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                    Leaf&& leaf, Op&& op) {
    if (begin >= end) return identity;
    const std::size_t chunk = block_size(end - begin);
    const std::size_t blocks = (end - begin + chunk - 1) / chunk;
    std::vector<std::optional<T>> slots(blocks);
    // blocks <= size(), so parallel_for hands each slot index its own block.
    parallel_for(0, blocks, [&](std::size_t first, std::size_t last) {
      for (std::size_t b = first; b < last; ++b) {
        const std::size_t lo = begin + b * chunk;
        slots[b].emplace(leaf(lo, std::min(end, lo + chunk)));
      }
    });
    T result = std::move(identity);
    // The running result moves into op: a by-value op (a merge of block
    // maps) then extends it in place instead of copying it per block.
    for (auto& slot : slots) result = op(std::move(result), std::move(*slot));
    return result;
  }

 private:
  /// Block length that splits `n` items into at most size() blocks.
  std::size_t block_size(std::size_t n) const {
    const std::size_t blocks = std::min<std::size_t>(size(), n);
    return (n + blocks - 1) / blocks;
  }

  void worker_loop();

  Channel<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

/// The shared, process-lifetime pool (hardware_concurrency workers,
/// created on first use). Modules that need parallelism but have no
/// caller-provided pool — the site builder, the search indexer, the
/// repository loader, the server's connection layer — share this instance
/// instead of constructing a private pool per call. A pool task may call
/// parallel_for/parallel_reduce on the same pool (the caller runs any
/// block no worker has claimed), but must not block on a submit() future
/// against it: that task could be queued behind the very worker waiting
/// for it.
ThreadPool& default_pool();

}  // namespace pdcu::rt
