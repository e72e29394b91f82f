#include "qsa/obs/histogram.hpp"

#include <cmath>
#include <limits>

namespace qsa::obs {

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // negatives, sub-unit values and NaN
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1), so exp >= 1
  const auto i = static_cast<std::size_t>(exp);
  return i < kBuckets ? i : kBuckets - 1;
}

double Histogram::bucket_lower(std::size_t i) noexcept {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double Histogram::bucket_upper(std::size_t i) noexcept {
  return i + 1 >= kBuckets ? std::numeric_limits<double>::infinity()
                           : std::ldexp(1.0, static_cast<int>(i));
}

void Histogram::observe(double v) noexcept {
  ++buckets_[bucket_index(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // 1-based rank of the target sample.
  auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;

  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (cumulative + buckets_[i] >= target) {
      const double frac = static_cast<double>(target - cumulative) /
                          static_cast<double>(buckets_[i]);
      const double lower = bucket_lower(i);
      // The overflow bucket has no finite upper edge; its samples are all
      // <= max_ by construction.
      const double upper = i + 1 >= kBuckets ? max_ : bucket_upper(i);
      double v = lower + frac * (upper - lower);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
    cumulative += buckets_[i];
  }
  return max_;  // unreachable for consistent counts
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace qsa::obs
