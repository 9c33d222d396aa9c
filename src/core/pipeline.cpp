#include "core/pipeline.hpp"

#include <span>

namespace hifind {

Pipeline::Pipeline(const PipelineConfig& config)
    : clock_(config.detector.interval_seconds),
      bank_(config.bank),
      detector_(config.detector) {}

void Pipeline::offer(const PacketRecord& p) {
  const std::uint64_t interval = clock_.interval_of(p.ts);
  if (!current_interval_) {
    current_interval_ = interval;
  }
  // Close every interval the stream has moved past (quiet intervals still
  // roll the forecasters — an empty minute is itself a signal).
  while (*current_interval_ < interval) {
    close_interval(*current_interval_);
    ++*current_interval_;
  }
  // Only SYN / SYN-ACK move the detection metric.
  if (!make_record_op(p, 1.0, ops_[num_ops_])) return;
  if (++num_ops_ == kBatchOps) flush();
}

void Pipeline::flush() {
  bank_.record_ops(std::span(ops_.data(), num_ops_), SketchBank::kGroupAll);
  num_ops_ = 0;
}

std::optional<IntervalResult> Pipeline::finish() {
  if (!current_interval_) return std::nullopt;
  IntervalResult result = close_interval(*current_interval_);
  current_interval_.reset();
  return result;
}

IntervalResult Pipeline::close_interval(std::uint64_t interval) {
  flush();
  IntervalResult result = detector_.process(bank_, interval);
  results_.push_back(result);
  if (callback_) callback_(result);
  // Housekeeping after the result is out: the clear is not on the path to
  // the alert.
  bank_.clear();
  return result;
}

std::vector<IntervalResult> Pipeline::run(const Trace& trace) {
  for (const auto& p : trace.packets()) offer(p);
  finish();
  return results_;
}

}  // namespace hifind
