// Log-bucketed histogram for simulation metrics (lookup hops, probe RTT,
// recovery latency, ...). Samples land in power-of-two buckets, so the
// memory footprint is a fixed 64-counter array regardless of range, and
// quantiles are answered by bucket interpolation — deterministic across
// runs and platforms (integer bucket math, no sampling).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qsa::obs {

class Histogram {
 public:
  /// Bucket 0 holds v < 1 (including any negative sample); bucket i in
  /// [1, 62] holds [2^(i-1), 2^i); bucket 63 is the overflow bucket
  /// [2^62, inf).
  static constexpr std::size_t kBuckets = 64;

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// Quantile estimate for q in [0, 1] by linear interpolation inside the
  /// bucket holding the ceil(q*n)-th sample, clamped to [min, max] so
  /// single-sample and exact-bucket cases return observed values. 0 when
  /// empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }

  /// Bucket index a value lands in.
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;
  /// Inclusive lower bound of a bucket (0 for bucket 0).
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept;
  /// Exclusive upper bound of a bucket (inf for the overflow bucket).
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept;

  void merge(const Histogram& other) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace qsa::obs
