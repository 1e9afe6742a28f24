#include "pdcu/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace rt = pdcu::rt;

TEST(ThreadPool, RunsSubmittedTasks) {
  rt::ThreadPool pool(4);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  rt::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  rt::ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  rt::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversTheWholeRange) {
  rt::ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(100);
  for (auto& t : touched) t.store(0);
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  rt::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSumMatchesSerial) {
  rt::ThreadPool pool(4);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 1);
  std::atomic<long long> sum{0};
  pool.parallel_for(0, data.size(), [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += data[i];
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000LL * 1001 / 2);
}

TEST(ThreadPool, ParallelReduceMatchesSerial) {
  rt::ThreadPool pool(4);
  std::vector<long long> data(997);
  std::iota(data.begin(), data.end(), -300);
  long long expected = std::accumulate(data.begin(), data.end(), 0LL);
  long long sum = pool.parallel_reduce<long long>(
      0, data.size(), 0,
      [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) local += data[i];
        return local;
      },
      [](long long a, long long b) { return a + b; });
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPool, ParallelReduceEmptyRangeGivesIdentity) {
  rt::ThreadPool pool(2);
  int result = pool.parallel_reduce<int>(
      10, 10, -7, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, -7);
}

TEST(ThreadPool, ParallelReduceMax) {
  rt::ThreadPool pool(3);
  std::vector<int> data = {5, 9, 2, 41, 7, 3, 40, 1};
  int best = pool.parallel_reduce<int>(
      0, data.size(), INT_MIN,
      [&](std::size_t lo, std::size_t hi) {
        int m = INT_MIN;
        for (std::size_t i = lo; i < hi; ++i) m = std::max(m, data[i]);
        return m;
      },
      [](int a, int b) { return std::max(a, b); });
  EXPECT_EQ(best, 41);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryClaimedBlockFinished) {
  rt::ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t) {
      started.fetch_add(1);
      if (lo == 0) {
        finished.fetch_add(1);
        throw std::runtime_error("block 0");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "block 0");
  }
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(finished.load(), started.load());
}

TEST(ThreadPool, NestedParallelForInsideAPoolTaskCompletes) {
  rt::ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    std::atomic<int> covered{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      covered.fetch_add(static_cast<int>(hi - lo));
    });
    return covered.load();
  });
  ASSERT_EQ(outer.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(outer.get(), 100);
}

TEST(ThreadPool, NestedParallelForOnEveryWorkerCompletes) {
  // Every worker runs an outer block that forks again on the same pool:
  // the inner helpers queue behind busy workers, so each inner caller
  // must run its own blocks.
  rt::ThreadPool pool(2);
  std::atomic<int> covered{0};
  pool.parallel_for(0, 2, [&](std::size_t, std::size_t) {
    pool.parallel_for(0, 50, [&](std::size_t lo, std::size_t hi) {
      covered.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(covered.load(), 100);
}

TEST(ThreadPool, BackToBackParallelForsAllFinish) {
  rt::ThreadPool pool(3);
  std::vector<int> hits(9, 0);
  for (int call = 0; call < 10'000; ++call) {
    pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
  }
  for (int count : hits) EXPECT_EQ(count, 10'000);
}

TEST(ThreadPool, ParallelReduceCombinesBlocksInIndexOrder) {
  // A non-commutative op over fewer items than workers: uneven blocks
  // must still combine left to right.
  rt::ThreadPool pool(4);
  const std::string letters = "abcde";
  const std::string joined = pool.parallel_reduce<std::string>(
      0, letters.size(), "",
      [&](std::size_t lo, std::size_t hi) {
        return "[" + letters.substr(lo, hi - lo) + "]";
      },
      [](std::string left, const std::string& right) {
        return left + right;
      });
  EXPECT_EQ(joined, "[ab][cd][e]");
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    rt::ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}
