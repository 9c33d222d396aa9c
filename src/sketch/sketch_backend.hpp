// Pluggable invertible-sketch backend.
//
// Detection needs exactly four capabilities from its per-key-space sketches —
// UPDATE, ESTIMATE, COMBINE and REVERSE, plus serialization — and
// until this layer existed they were welded to one implementation, the
// Schweller reversible sketch, whose REVERSE is a modular-hash DFS sweep.
// InvertibleSketch is the seam: a closed-set value wrapper over the backends
// that provide those capabilities, selected per SketchBank by config.
//
//   kReversible — ReversibleSketch + StreamingInference (the paper-faithful
//                 reference backend; REVERSE = bucket-intersection DFS).
//   kCompact    — CompactInvertibleSketch + CompactExtraction (Tang-style
//                 bucket-embedded key material; REVERSE = O(key_bits) direct
//                 decode per heavy bucket, no sweep).
//
// A std::variant rather than virtual dispatch: the recording hot path calls
// update()/update_batch() millions of times per second and the set of
// backends is known at compile time. The wrapper dispatches only what differs
// per backend — hashing (update, update_batch, estimate), the access count
// and REVERSE. Everything linear goes straight to the active backend's int32
// CounterGrid (grid()), so Forecaster<InvertibleSketch>, the fused
// kernels, the shard merge and the wire layer all see the same grid the
// backend records into. A forecast error is a bare double grid of that
// shape, which the sketch estimates from and ReverseEngine searches through
// the backend's hashing. The backend contract every implementation must
// honor is:
//
//   * COMBINE linearity: counters are plain linear accumulators and
//     COMBINE is one EXACT unit-weight whole-array sum
//     (CounterGrid::accumulate, which SketchBank::merge_shards runs per
//     grid), so shard merges and router sums are bit-identical to serial
//     recording and forecasters roll in sketch space.
//   * Metered REVERSE: the extraction engine exposes
//     begin/run/take_result with a deterministic work meter, so the epoch
//     budget truncates at a point that is a pure function of (bank,
//     config) — never of thread count or wall clock.
//   * Flat serialization: state is config + one counter array
//     (grid().counters()/load_counters()), which the HFB5 wire frame ships
//     as stored (int32 recording counters, 4 bytes each).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <variant>

#include "sketch/compact_invertible.hpp"
#include "sketch/reversible_sketch.hpp"

namespace hifind {

enum class SketchBackendKind : std::uint8_t {
  kReversible = 0,  ///< modular-hash reversible sketch + DFS reversal
  kCompact = 1,     ///< compact invertible sketch + direct bucket decode
};

/// "reversible" / "compact" — stable names used by benches, CI and configs.
std::string_view sketch_backend_name(SketchBackendKind kind);

/// Shape of one invertible sketch, backend selection included. Only the
/// selected backend's sub-config is used; both are kept so a SketchBank
/// config can flip backends without re-deriving shapes, and both must be
/// valid, so no sketch, bank or decoded frame carries a shape a flip would
/// reject.
struct InvertibleSketchConfig {
  SketchBackendKind kind{SketchBackendKind::kReversible};
  ReversibleSketchConfig reversible{};
  CompactInvertibleConfig compact{};

  bool operator==(const InvertibleSketchConfig&) const = default;
};

/// Returns `config`, or throws std::invalid_argument if either backend's
/// shape is invalid (the selected one's or the other's).
const InvertibleSketchConfig& validated(const InvertibleSketchConfig& config);

/// The pluggable invertible sketch. Value-semantic; hashing dispatches to
/// the selected backend, the linear algebra runs on its grid (grid()).
/// See the file comment for the backend contract.
class InvertibleSketch {
  using Reversible = ReversibleSketch;
  using Compact = CompactInvertibleSketch;

 public:
  /// Throws std::invalid_argument unless both backends' shapes are valid.
  explicit InvertibleSketch(const InvertibleSketchConfig& config)
      : config_(validated(config)),
        impl_(config.kind == SketchBackendKind::kReversible
                  ? Impl(std::in_place_type<Reversible>, config.reversible)
                  : Impl(std::in_place_type<Compact>, config.compact)) {}

  SketchBackendKind kind() const { return config_.kind; }
  const InvertibleSketchConfig& config() const { return config_; }

  /// Backend-specific views (for serialization and tests). Throws
  /// std::bad_variant_access when the other backend is selected.
  const Reversible& reversible() const { return std::get<Reversible>(impl_); }
  const Compact& compact() const { return std::get<Compact>(impl_); }

  void update(std::uint64_t key, std::int32_t delta) {
    std::visit([&](auto& s) { s.update(key, delta); }, impl_);
  }
  void update_batch(std::span<const KeyDelta> ops) {
    std::visit([&](auto& s) { s.update_batch(ops); }, impl_);
  }
  double estimate(std::uint64_t key, double scale = 1.0) const {
    return std::visit([&](const auto& s) { return s.estimate(key, scale); },
                      impl_);
  }
  /// The estimate from `counters`, a double grid of this shape (unchecked).
  double estimate(std::uint64_t key, const CounterGrid& counters,
                  double scale = 1.0) const {
    return std::visit(
        [&](const auto& s) { return s.estimate(key, counters, scale); },
        impl_);
  }

  /// The active backend's counter grid.
  const CounterGrid32& grid() const {
    if (const auto* rs = std::get_if<Reversible>(&impl_)) return rs->grid();
    return std::get<Compact>(impl_).grid();
  }
  CounterGrid32& grid() {
    return const_cast<CounterGrid32&>(std::as_const(*this).grid());
  }

  std::size_t accesses_per_update() const {
    return std::visit([](const auto& s) { return s.accesses_per_update(); },
                      impl_);
  }

 private:
  using Impl = std::variant<Reversible, Compact>;

  InvertibleSketchConfig config_;
  Impl impl_;
};

/// REVERSE for the pluggable sketch: wraps the backend extraction engines
/// behind one begin/run/take_result surface with the shared
/// InferenceOptions/InferenceResult types. Both engines are kept as members
/// (they retain workspaces across runs), so a long-lived ReverseEngine stays
/// allocation-free on stable shapes, whichever backend drives it.
class ReverseEngine {
 public:
  ReverseEngine() = default;
  ReverseEngine(const ReverseEngine&) = delete;
  ReverseEngine& operator=(const ReverseEngine&) = delete;

  /// The backend's search over `counters`, a double grid of `sketch`'s
  /// shape; see StreamingInference::begin and CompactExtraction::begin.
  void begin(const InvertibleSketch& sketch, const CounterGrid& counters,
             double threshold, const InferenceOptions& options,
             StageBuckets stage_buckets);
  void begin(const InvertibleSketch& sketch, const CounterGrid& counters,
             double threshold, const InferenceOptions& options);
  /// Runs the search to completion.
  void run();
  /// The reversible search, switched to split mode (see
  /// StreamingInference::split), when it is unbudgeted; nullptr for a
  /// budgeted search or the compact backend, which run() drives.
  StreamingInference* split();
  InferenceResult take_result();

 private:
  StreamingInference dfs_;
  CompactExtraction extract_;
  bool compact_active_{false};
};

/// One-shot REVERSE through the selected backend.
InferenceResult infer_heavy_keys(const InvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options = {});
InferenceResult infer_heavy_keys(const InvertibleSketch& sketch,
                                 const CounterGrid& counters,
                                 double threshold,
                                 const InferenceOptions& options,
                                 StageBuckets stage_buckets);

}  // namespace hifind
