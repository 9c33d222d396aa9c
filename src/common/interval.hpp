// Interval bookkeeping for time-series detection.
//
// The data-recording path is continuous; the detection path runs once per
// interval (paper: one minute by default). IntervalClock converts packet
// timestamps (microseconds since trace start) to interval indices and tells
// stream consumers when an interval boundary has been crossed.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace hifind {

/// Microseconds since the start of a trace.
using Timestamp = std::uint64_t;

constexpr Timestamp kMicrosPerSecond = 1'000'000;

/// Maps timestamps to fixed-width interval indices.
class IntervalClock {
 public:
  /// @param interval_seconds  width of each detection interval. Throws
  /// std::invalid_argument for 0.
  explicit IntervalClock(std::uint32_t interval_seconds = 60)
      : width_us_(Timestamp{interval_seconds} * kMicrosPerSecond) {
    if (interval_seconds == 0) {
      throw std::invalid_argument("IntervalClock: interval width must be > 0");
    }
  }

  /// Index of the interval containing ts (0-based).
  std::uint64_t interval_of(Timestamp ts) const { return ts / width_us_; }

  /// First timestamp of interval i.
  Timestamp interval_start(std::uint64_t i) const { return i * width_us_; }

  Timestamp width_us() const { return width_us_; }
  double width_seconds() const {
    return static_cast<double>(width_us_) / kMicrosPerSecond;
  }

 private:
  Timestamp width_us_;
};

}  // namespace hifind
