#include "pdcu/obs/histogram.hpp"

#include <bit>
#include <cmath>

namespace pdcu::obs {

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value <= 1) return 0;
  // Smallest i with 2^i >= value, i.e. the bucket whose inclusive upper
  // bound covers the value; everything past 2^62 shares the last bucket.
  const auto index = static_cast<std::size_t>(std::bit_width(value - 1));
  return index < kBucketCount ? index : kBucketCount - 1;
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t bucket) {
  if (bucket >= kBucketCount - 1) return UINT64_MAX;
  return std::uint64_t{1} << bucket;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::merge(const Histogram& other) {
  const Snapshot snap = other.snapshot();
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (snap.buckets[i] != 0) {
      buckets_[i].fetch_add(snap.buckets[i], std::memory_order_relaxed);
    }
  }
  sum_.fetch_add(snap.sum, std::memory_order_relaxed);
}

void Histogram::Snapshot::merge(const Snapshot& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
}

std::uint64_t Histogram::Snapshot::cumulative(std::size_t bucket) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bucket && i < kBucketCount; ++i) {
    total += buckets[i];
  }
  return total;
}

std::uint64_t Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the value we are after, 1-based; p=0 means the smallest.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  const std::uint64_t rank = target == 0 ? 1 : target;

  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    // The rank falls in this bucket; interpolate between its bounds. The
    // open-ended last bucket has no meaningful width, so report its lower
    // bound (the largest value the histogram can still resolve).
    const std::uint64_t lower = i == 0 ? 0 : bucket_upper_bound(i - 1);
    if (i == kBucketCount - 1) return lower;
    const std::uint64_t upper = bucket_upper_bound(i);
    const double fraction = static_cast<double>(rank - seen) /
                            static_cast<double>(buckets[i]);
    return lower + static_cast<std::uint64_t>(
                       std::llround(fraction *
                                    static_cast<double>(upper - lower)));
  }
  return bucket_upper_bound(kBucketCount - 2);
}

std::uint64_t Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  const std::uint64_t rank = target == 0 ? 1 : target;

  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    const std::uint64_t lower = i == 0 ? 0 : bucket_upper_bound(i - 1);
    if (i == kBucketCount - 1) return lower;
    const std::uint64_t upper = bucket_upper_bound(i);
    const double fraction = static_cast<double>(rank - seen) /
                            static_cast<double>(buckets[i]);
    if (lower == 0) {
      // Bucket 0 holds {0, 1}: no log space to interpolate in.
      return static_cast<std::uint64_t>(
          std::llround(fraction * static_cast<double>(upper)));
    }
    // Geometric interpolation: with upper == 2 * lower this is exactly
    // lower * 2^fraction, i.e. uniform in log(value) across the bucket.
    const double ratio =
        static_cast<double>(upper) / static_cast<double>(lower);
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(lower) * std::pow(ratio, fraction)));
  }
  return bucket_upper_bound(kBucketCount - 2);
}

}  // namespace pdcu::obs
