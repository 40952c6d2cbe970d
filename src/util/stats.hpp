// Streaming statistics used by the Monte-Carlo simulator and benches.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bvc {

/// Welford-style running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 when fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Accumulates a ratio of two sums (numerator / denominator), the shape of
/// every utility function in the paper (relative revenue, per-block revenue,
/// orphans per attacker block).
class RatioAccumulator {
 public:
  void add(double numerator, double denominator) noexcept {
    num_ += numerator;
    den_ += denominator;
    ++count_;
  }

  [[nodiscard]] double numerator() const noexcept { return num_; }
  [[nodiscard]] double denominator() const noexcept { return den_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// num/den, or `fallback` when the denominator is zero.
  [[nodiscard]] double ratio(double fallback = 0.0) const noexcept {
    return den_ != 0.0 ? num_ / den_ : fallback;
  }
  void merge(const RatioAccumulator& other) noexcept {
    num_ += other.num_;
    den_ += other.den_;
    count_ += other.count_;
  }

 private:
  double num_ = 0.0;
  double den_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace bvc
