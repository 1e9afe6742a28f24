// Unit tests for the lock-free log-bucketed histogram: exact bucket
// boundaries, percentile monotonicity, merging, exposition rendering, and
// a concurrent-record hammer that gives TSan something to chew on.
#include "pdcu/obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "pdcu/obs/exposition.hpp"
#include "pdcu/obs/lint.hpp"
#include "pdcu/support/rng.hpp"
#include "pdcu/support/strings.hpp"

namespace obs = pdcu::obs;
namespace strs = pdcu::strings;

TEST(Histogram, BucketBoundariesAreExactPowersOfTwo) {
  // Bucket i holds (2^(i-1), 2^i]: 0 and 1 share bucket 0, each power of
  // two is the top of its bucket, and one past it starts the next.
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(5), 3u);
  for (std::size_t i = 1; i < 63; ++i) {
    const std::uint64_t top = std::uint64_t{1} << i;
    EXPECT_EQ(obs::Histogram::bucket_index(top), i) << "value 2^" << i;
    EXPECT_EQ(obs::Histogram::bucket_index(top + 1), i + 1)
        << "value 2^" << i << "+1";
  }
  EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX), 63u);
}

TEST(Histogram, BucketUpperBoundsMatchTheIndexing) {
  for (std::size_t i = 0; i < obs::Histogram::kBucketCount - 1; ++i) {
    const std::uint64_t bound = obs::Histogram::bucket_upper_bound(i);
    EXPECT_EQ(bound, std::uint64_t{1} << i);
    // The bound itself lands in bucket i; bound+1 does not.
    EXPECT_EQ(obs::Histogram::bucket_index(bound), i);
  }
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(63), UINT64_MAX);
}

TEST(Histogram, CountSumAndCumulativeTrackRecords) {
  obs::Histogram h;
  for (const std::uint64_t value : {1u, 2u, 4u, 16u, 100u}) h.record(value);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 123u);
  // Cumulative counts at the internal bucket edges are exact.
  EXPECT_EQ(snap.cumulative(obs::Histogram::bucket_index(1)), 1u);
  EXPECT_EQ(snap.cumulative(obs::Histogram::bucket_index(2)), 2u);
  EXPECT_EQ(snap.cumulative(obs::Histogram::bucket_index(4)), 3u);
  EXPECT_EQ(snap.cumulative(obs::Histogram::bucket_index(16)), 4u);
  EXPECT_EQ(snap.cumulative(obs::Histogram::kBucketCount - 1), 5u);
  EXPECT_DOUBLE_EQ(snap.mean(), 123.0 / 5.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto snap = h.snapshot();
  std::uint64_t previous = 0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const std::uint64_t value = snap.percentile(p);
    EXPECT_GE(value, previous) << "p=" << p;
    previous = value;
  }
  // Every recorded value is in [1, 1000]; a log-bucketed histogram's
  // percentile can only err within its bucket, so the p50 must land in
  // the bucket containing the true median (256, 512].
  const std::uint64_t p50 = snap.percentile(50.0);
  EXPECT_GE(p50, 256u);
  EXPECT_LE(p50, 512u);
  EXPECT_LE(snap.percentile(100.0), 1024u);
  EXPECT_EQ(obs::Histogram::Snapshot{}.percentile(50.0), 0u);
}

TEST(Histogram, RepeatedSingleValueGivesATightPercentile) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  // All mass sits in bucket (4, 8]; every percentile stays inside it
  // (integer truncation can touch the lower edge).
  for (const double p : {1.0, 50.0, 95.0, 99.0, 100.0}) {
    const std::uint64_t value = h.percentile(p);
    EXPECT_GE(value, 4u) << "p=" << p;
    EXPECT_LE(value, 8u) << "p=" << p;
  }
}

TEST(Histogram, MergeAddsCountsAndSums) {
  obs::Histogram a;
  obs::Histogram b;
  for (const std::uint64_t v : {1u, 10u, 100u}) a.record(v);
  for (const std::uint64_t v : {2u, 20u, 200u, 2000u}) b.record(v);
  a.merge(b);
  const auto merged = a.snapshot();
  EXPECT_EQ(merged.count, 7u);
  EXPECT_EQ(merged.sum, 111u + 2222u);
  EXPECT_EQ(merged.cumulative(obs::Histogram::bucket_index(2)), 2u);
  // b is untouched.
  EXPECT_EQ(b.snapshot().count, 4u);
}

// Loads `values` into `shards` histograms round-robin, merges them two
// ways (atomic Histogram::merge and plain Snapshot::merge), checks both
// agree, and returns the merged snapshot.
obs::Histogram::Snapshot sharded_merge(const std::vector<std::uint64_t>& values,
                                       std::size_t shards) {
  std::vector<obs::Histogram> workers(shards);
  for (std::size_t i = 0; i < values.size(); ++i) {
    workers[i % shards].record(values[i]);
  }
  obs::Histogram combined;
  obs::Histogram::Snapshot folded;
  for (const auto& worker : workers) {
    combined.merge(worker);
    folded.merge(worker.snapshot());
  }
  const auto atomic_snap = combined.snapshot();
  EXPECT_EQ(atomic_snap.count, folded.count);
  EXPECT_EQ(atomic_snap.sum, folded.sum);
  EXPECT_EQ(atomic_snap.buckets, folded.buckets);
  return folded;
}

TEST(Histogram, MergedQuantilesMatchASortedSampleOracle) {
  // A long-tailed, latency-shaped sample: deterministic log-uniform values
  // over [1, ~1e6], the distribution the log buckets were built for.
  pdcu::Rng rng(20260808);
  std::vector<std::uint64_t> values;
  values.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<std::uint64_t>(
        std::llround(std::exp(rng.uniform() * std::log(1e6)))));
  }
  const auto merged = sharded_merge(values, 4);
  EXPECT_EQ(merged.count, values.size());

  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::uint64_t oracle = sorted[rank == 0 ? 0 : rank - 1];
    const std::uint64_t estimate = merged.quantile(q);
    // Power-of-two buckets bound the relative error by 2x in either
    // direction; the log-space interpolation should stay well inside.
    EXPECT_GE(estimate * 2, oracle) << "q=" << q;
    EXPECT_LE(estimate, oracle * 2) << "q=" << q;
  }
}

TEST(Histogram, QuantileIsMonotoneAndHandlesEdges) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto snap = h.snapshot();
  std::uint64_t previous = 0;
  for (double q = 0.0; q <= 1.0; q += 0.005) {
    const std::uint64_t value = snap.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
  // The true median 500 lives in bucket (256, 512].
  EXPECT_GE(snap.quantile(0.5), 256u);
  EXPECT_LE(snap.quantile(0.5), 512u);
  EXPECT_LE(snap.quantile(1.0), 1024u);
  EXPECT_EQ(obs::Histogram::Snapshot{}.quantile(0.5), 0u);

  // A single repeated value stays pinned to its bucket.
  obs::Histogram single;
  for (int i = 0; i < 64; ++i) single.record(7);
  const auto pinned = single.snapshot();
  for (const double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_GE(pinned.quantile(q), 4u) << "q=" << q;
    EXPECT_LE(pinned.quantile(q), 8u) << "q=" << q;
  }
}

TEST(Histogram, SnapshotMergeOntoEmptyIsIdentity) {
  obs::Histogram h;
  for (const std::uint64_t v : {3u, 900u, 123456u}) h.record(v);
  const auto original = h.snapshot();
  obs::Histogram::Snapshot folded;
  folded.merge(original);
  EXPECT_EQ(folded.buckets, original.buckets);
  EXPECT_EQ(folded.count, original.count);
  EXPECT_EQ(folded.sum, original.sum);
  EXPECT_EQ(folded.quantile(0.99), original.quantile(0.99));
}

TEST(Histogram, ExpositionSeriesAreCumulativeAndLintClean) {
  obs::Histogram h;
  for (const std::uint64_t v : {1u, 3u, 17u, 100000u}) h.record(v);
  const std::string out =
      obs::Exposition()
          .family("test_latency_us", obs::Exposition::Type::kHistogram, "Test.")
          .histogram({{"route", "page"}}, h.snapshot())
          .take();
  EXPECT_TRUE(strs::contains(
      out, "test_latency_us_bucket{route=\"page\",le=\"1\"} 1\n"));
  EXPECT_TRUE(strs::contains(
      out, "test_latency_us_bucket{route=\"page\",le=\"4\"} 2\n"));
  EXPECT_TRUE(strs::contains(
      out, "test_latency_us_bucket{route=\"page\",le=\"64\"} 3\n"));
  EXPECT_TRUE(strs::contains(
      out, "test_latency_us_bucket{route=\"page\",le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(
      strs::contains(out, "test_latency_us_sum{route=\"page\"} 100021\n"));
  EXPECT_TRUE(
      strs::contains(out, "test_latency_us_count{route=\"page\"} 4\n"));
  const auto problems = obs::lint_exposition(out);
  EXPECT_TRUE(problems.empty()) << strs::join(problems, "\n");

  // Unlabeled rendering drops the braces on _sum/_count.
  const std::string bare =
      obs::Exposition()
          .family("bare_us", obs::Exposition::Type::kHistogram, "Test.")
          .histogram({}, h.snapshot())
          .take();
  EXPECT_TRUE(strs::contains(bare, "bare_us_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(strs::contains(bare, "bare_us_sum 100021\n"));
  EXPECT_TRUE(strs::contains(bare, "bare_us_count 4\n"));
  const auto bare_problems = obs::lint_exposition(bare);
  EXPECT_TRUE(bare_problems.empty()) << strs::join(bare_problems, "\n");
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i + static_cast<std::uint64_t>(t)) % 4096);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.cumulative(obs::Histogram::kBucketCount - 1),
            kThreads * kPerThread);
  EXPECT_GT(snap.sum, 0u);
}
