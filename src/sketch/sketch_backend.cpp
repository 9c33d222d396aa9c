#include "sketch/sketch_backend.hpp"

#include <stdexcept>
#include <string>

namespace hifind {

std::string_view sketch_backend_name(SketchBackendKind kind) {
  switch (kind) {
    case SketchBackendKind::kReversible:
      return "reversible";
    case SketchBackendKind::kCompact:
      return "compact";
  }
  return "unknown";
}

void ReverseEngine::begin(const InvertibleSketch& sketch, double threshold,
                          const InferenceOptions& options,
                          StageBuckets stage_buckets) {
  compact_active_ = sketch.kind() == SketchBackendKind::kCompact;
  if (compact_active_) {
    extract_.begin(sketch.compact(), threshold, options,
                   std::move(stage_buckets));
  } else {
    dfs_.begin(sketch.reversible(), threshold, options,
               std::move(stage_buckets));
  }
}

void ReverseEngine::begin(const InvertibleSketch& sketch, double threshold,
                          const InferenceOptions& options) {
  begin(sketch, threshold, options, heavy_buckets(sketch, threshold));
}

void ReverseEngine::run() {
  if (compact_active_) {
    extract_.run();
  } else {
    dfs_.run();
  }
}

StreamingInference* ReverseEngine::split() {
  return !compact_active_ && dfs_.split() ? &dfs_ : nullptr;
}

InferenceResult ReverseEngine::take_result() {
  return compact_active_ ? extract_.take_result() : dfs_.take_result();
}

InferenceResult infer_heavy_keys(const InvertibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options) {
  return infer_heavy_keys(sketch, threshold, options,
                          heavy_buckets(sketch, threshold));
}

InferenceResult infer_heavy_keys(const InvertibleSketch& sketch,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets) {
  ReverseEngine engine;
  engine.begin(sketch, threshold, options, std::move(stage_buckets));
  engine.run();
  return engine.take_result();
}

}  // namespace hifind
