#include "pdcu/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace pdcu::rt {

namespace {

/// One parallel_for call. The caller and the helper tasks claim blocks
/// from `next`; the caller then waits on `done`. Helpers share ownership,
/// so one that starts after the caller returned still finds the job
/// alive; it claims no block and so never touches `body`.
struct ForkJoin {
  ForkJoin(const std::function<void(std::size_t, std::size_t)>& body,
           std::size_t begin, std::size_t end, std::size_t chunk)
      : body(body),
        begin(begin),
        end(end),
        chunk(chunk),
        blocks((end - begin + chunk - 1) / chunk) {}

  /// Runs unclaimed blocks until none is left.
  void run() {
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
         b < blocks; b = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin + b * chunk;
      try {
        body(lo, std::min(end, lo + chunk));
      } catch (...) {
        if (!failed.test_and_set()) error = std::current_exception();
      }
      // Release: the block's writes (and `error`) reach the caller.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == blocks) {
        done.notify_one();
      }
    }
  }

  /// Blocks until every block has finished.
  void wait() {
    for (std::size_t seen = done.load(std::memory_order_acquire);
         seen != blocks; seen = done.load(std::memory_order_acquire)) {
      done.wait(seen, std::memory_order_acquire);
    }
  }

  const std::function<void(std::size_t, std::size_t)>& body;
  const std::size_t begin, end, chunk, blocks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic_flag failed;
  std::exception_ptr error;  ///< the first exception a block threw
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  tasks_.close();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (auto task = tasks_.recv()) {
    (*task)();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const auto job =
      std::make_shared<ForkJoin>(body, begin, end, block_size(end - begin));
  for (std::size_t helper = 1; helper < job->blocks; ++helper) {
    tasks_.send([job] { job->run(); });
  }
  job->run();
  job->wait();
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pdcu::rt
