// End-to-end single-monitor pipeline: stream packets in, alerts out.
//
// Wires the pieces together exactly as Figure 2 of the paper: continuous
// sketch recording, and once per interval the detection pass (forecast ->
// error -> inference -> classification -> FP filters). Offline traces and
// live streams use the same object: offer() packets in timestamp order and
// interval boundaries are handled internally; finish() flushes the tail
// interval.
//
// Recording is batched: offer() extracts each packet's RecordOp and buffers
// it, and the buffer goes to SketchBank::record_ops (the sketch-major batch
// path) when it fills, before each interval closes, and in finish(). Every
// sketch still sees the ops in stream order, so the counters — and the
// alerts — are bit-identical to recording packet by packet.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/interval.hpp"
#include "detect/hifind.hpp"
#include "detect/sketch_bank.hpp"
#include "packet/trace.hpp"

namespace hifind {

struct PipelineConfig {
  SketchBankConfig bank{};
  HifindDetectorConfig detector{};
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  /// Feeds one packet; packets must be offered in non-decreasing timestamp
  /// order. Crossing an interval boundary triggers detection for the closed
  /// interval(s) and invokes the callback (if set) for each result.
  void offer(const PacketRecord& p);

  /// Closes the interval in progress and returns its result (if any packet
  /// was seen). Call once at end of stream.
  std::optional<IntervalResult> finish();

  /// Invoked for each completed interval (alerts may be empty), as soon as
  /// its result exists: the bank is cleared only after the callback
  /// returns, so inside it bank() still holds the closed interval, every op
  /// of it recorded.
  void on_interval(std::function<void(const IntervalResult&)> callback) {
    callback_ = std::move(callback);
  }

  /// Convenience: run a whole trace, returning every interval's result.
  std::vector<IntervalResult> run(const Trace& trace);

  /// The bank recording the interval in progress. Up to kBatchOps - 1
  /// offered ops may still sit in the buffer. Inside an on_interval
  /// callback it is the closed interval's bank, holding all of its ops;
  /// once the offer() or finish() that closed the interval returns, it has
  /// been cleared for the next one.
  const SketchBank& bank() const { return bank_; }
  const HifindDetectorConfig& detector_config() const {
    return detector_.config();
  }

  /// Collected results so far (also returned by run()).
  const std::vector<IntervalResult>& results() const { return results_; }

 private:
  /// Ops buffered before one record_ops call.
  static constexpr std::size_t kBatchOps = 256;

  IntervalResult close_interval(std::uint64_t interval);
  void flush();

  IntervalClock clock_;
  SketchBank bank_;
  std::array<RecordOp, kBatchOps> ops_;
  std::size_t num_ops_{0};
  HifindDetector detector_;
  std::optional<std::uint64_t> current_interval_;
  std::vector<IntervalResult> results_;
  std::function<void(const IntervalResult&)> callback_;
};

}  // namespace hifind
