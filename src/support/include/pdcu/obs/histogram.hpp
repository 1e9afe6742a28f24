// A lock-free log-bucketed latency histogram in the HdrHistogram /
// Prometheus tradition. record() is one relaxed fetch_add on a bucket plus
// one on the running sum, cheap enough for a per-request hot path; readers
// take a Snapshot (plain integers) and compute percentiles and cumulative
// bucket counts from that without stopping writers (obs::Exposition turns
// a snapshot into exposition series).
//
// Buckets are powers of two: bucket i holds values in (2^(i-1), 2^i], so
// bucket 0 is {0, 1}, bucket 1 is {2}, bucket 2 is {3, 4}, and the last
// bucket is everything above 2^62 (+Inf in exposition terms). 64 buckets
// cover the whole uint64 range with a worst-case relative error of 2x,
// which is the usual trade for a histogram this cheap.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pdcu::obs {

class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 64;

  /// One consistent view of the histogram, safe to read at leisure.
  /// "Consistent" here means each bucket was read once; a concurrent
  /// record() may or may not be included, which is fine for monitoring.
  struct Snapshot {
    std::array<std::uint64_t, kBucketCount> buckets{};
    std::uint64_t count = 0;  ///< sum of buckets
    std::uint64_t sum = 0;    ///< sum of recorded values

    /// Number of recorded values <= bucket_upper_bound(bucket).
    std::uint64_t cumulative(std::size_t bucket) const;

    /// The p-th percentile (p in [0, 100]), linearly interpolated inside
    /// the winning bucket; 0 when empty. Monotone in p.
    std::uint64_t percentile(double p) const;

    /// The q-th quantile (q in [0, 1]), interpolated in *log space* inside
    /// the winning bucket: the mass of a bucket (lo, hi] is assumed
    /// uniform in log(value), which matches the geometric bucket layout
    /// and keeps the estimator unbiased for the long-tailed latency
    /// distributions the load generator records. 0 when empty; monotone
    /// in q. Prefer this over percentile() for reported latencies.
    std::uint64_t quantile(double q) const;

    /// Adds another snapshot's counts and sum into this one. Plain
    /// integer arithmetic — this is how per-worker histograms combine
    /// without any locks: each worker snapshots its own histogram, then
    /// one thread folds the snapshots together.
    void merge(const Snapshot& other);

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  /// Records one value. Relaxed atomics only; any number of threads.
  void record(std::uint64_t value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  Snapshot snapshot() const;

  std::uint64_t count() const { return snapshot().count; }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t percentile(double p) const { return snapshot().percentile(p); }

  /// Adds every count (and the sum) of `other` into this histogram, as if
  /// all of other's values had been recorded here too. Safe against
  /// concurrent record() on either side (each bucket is read once and
  /// added atomically).
  void merge(const Histogram& other);

  /// Bucket that record(value) lands in.
  static std::size_t bucket_index(std::uint64_t value);

  /// Inclusive upper bound of a bucket: 2^i for i < 63, UINT64_MAX
  /// (rendered "+Inf") for the last.
  static std::uint64_t bucket_upper_bound(std::size_t bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace pdcu::obs
