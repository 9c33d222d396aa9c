// Scalar time-series primitives for the baseline detectors.
//
// CPM (Wang/Zhang/Shin, INFOCOM 2002) monitors a single aggregate statistic
// with a non-parametric CUSUM; these helpers keep that logic reusable and
// unit-testable apart from the packet plumbing.
#pragma once

#include <algorithm>
#include <stdexcept>

namespace hifind {

/// Scalar exponentially weighted moving average.
class ScalarEwma {
 public:
  explicit ScalarEwma(double alpha) : alpha_(alpha) {
    if (alpha <= 0.0 || alpha > 1.0) {
      throw std::invalid_argument("EWMA alpha must be in (0,1]");
    }
  }

  /// Feeds one sample; returns the updated mean.
  double update(double x) {
    mean_ = primed_ ? alpha_ * x + (1.0 - alpha_) * mean_ : x;
    primed_ = true;
    return mean_;
  }

  bool primed() const { return primed_; }
  double mean() const { return mean_or(0.0); }
  /// The mean, or `fallback` before the first sample.
  double mean_or(double fallback) const { return primed_ ? mean_ : fallback; }
  void reset() {
    mean_ = 0.0;
    primed_ = false;
  }

 private:
  double alpha_;
  // A plain value plus a flag rather than std::optional<double>: GCC's
  // -Wmaybe-uninitialized misreads the optional's payload once this class
  // is inlined into a caller.
  double mean_{0.0};
  bool primed_{false};
};

/// Non-parametric CUSUM (Brodsky & Darkhovsky form used by CPM):
///   y_n = max(0, y_{n-1} + x_n - offset)
/// and an alarm fires while y_n exceeds the threshold. `offset` shifts the
/// in-control mean of x below zero so y drifts back down between changes.
class Cusum {
 public:
  /// @param offset     drift removed from each sample (the "a" in CPM).
  /// @param threshold  alarm level for the accumulated statistic.
  Cusum(double offset, double threshold)
      : offset_(offset), threshold_(threshold) {
    if (threshold <= 0.0) {
      throw std::invalid_argument("CUSUM threshold must be positive");
    }
  }

  /// Feeds one sample; returns true while in the alarm state.
  bool update(double x) {
    value_ = std::max(0.0, value_ + x - offset_);
    return value_ > threshold_;
  }

  double value() const { return value_; }
  bool alarmed() const { return value_ > threshold_; }
  void reset() { value_ = 0.0; }

 private:
  double offset_;
  double threshold_;
  double value_{0.0};
};

}  // namespace hifind
