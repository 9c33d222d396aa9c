// Adaptive load shedding for the ingest path (the system's answer to
// "what happens at 2x line rate").
//
// When traffic outruns the recording budget, the shedder degrades to
// DETERMINISTIC hash-based flow sampling at power-of-two rates: at shed
// level k, a recordable op is admitted iff the low k bits of
// mix64(k_sip_dip ^ seed) are zero — a nested family of 2^-k samples
// (level k+1 admits a subset of level k), which is Azzana et al.'s
// sampling-rate adaptation (arXiv:0901.4846) specialized to flows. Keying
// on the packed {SIP,DIP} pair matters twice over:
//
//  - extract_key() reflects SYN/ACK direction, so a SYN and the SYN/ACK
//    answering it hash identically — a sampled flow is sampled in BOTH
//    directions, and the #SYN − #SYN/ACK signal stays unbiased instead of
//    manufacturing phantom un-responded SYNs;
//  - a spoofed flood spreads over random {SIP,DIP} flows, so its victim's
//    aggregated keys ({DIP,Dport} etc.) retain a 2^-k fraction of the
//    attack — rescaling recovers the magnitude.
//
// Admitted ops are recorded with weight 2^k (Horvitz–Thompson inverse
// probability), which bakes the 1/coverage rescale of degraded-mode
// detection (router/collector.hpp) into the counters themselves — exactly
// right even when the level changes mid-interval, where one end-of-interval
// scalar rescale could not be. Every weight is an integer, so the int32
// interval counters add it exactly (modulo 2^32) and the sharded seal merge
// keeps its BIT-identity contract (SketchBank::merge_shards).
//
// One escalation trigger, the recording budget, and it is deterministic: the
// level for the n-th recordable op of an interval is a pure function of n and
// the config — it steps up each time the offered count crosses
// budget << level. Combined with the deterministic admit test, the admitted
// weighted op multiset is a pure function of (packet stream, config): alerts
// are bit-identical at any shard count, ring size, or host speed.
//
// The level decays by restore_levels_per_interval at each seal, so a burst
// sheds immediately but coverage is restored one octave per quiet interval
// (shed/restore cycles, exercised by detect/overload_injector.hpp).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/hash.hpp"
#include "packet/packet.hpp"

namespace hifind {

struct LoadShedderConfig {
  /// Recordable ops per interval before shedding starts; the level then
  /// escalates at budget<<1, budget<<2, ... 0 disables the budget trigger.
  std::uint64_t budget_ops_per_interval{0};
  /// Deepest shed level (rate 2^-max_level); min_coverage() is the floor
  /// the CI soak gate asserts against. Must be below 64, the width of the
  /// admit test's shifts; LoadShedder's constructor rejects larger values.
  std::uint32_t max_level{6};
  /// Seal-time hysteresis: levels restored per interval once pressure ends.
  std::uint32_t restore_levels_per_interval{1};
  /// Level the shedder starts at (fixed-rate sampling when no budget is
  /// configured; benches use it to pin a rate).
  std::uint32_t initial_level{0};
  /// Salt for the admit hash; same salt + same stream => same decisions.
  std::uint64_t hash_seed{0x9e3779b97f4a7c15ull};

  bool enabled() const {
    return budget_ops_per_interval > 0 || initial_level > 0;
  }
  /// Worst-case sampling coverage the config can degrade to.
  double min_coverage() const {
    return std::ldexp(1.0, -static_cast<int>(max_level));
  }
};

/// Per-interval shedding outcome, sealed at each interval close and folded
/// into the interval's CoverageReport by the pipeline.
struct ShedReport {
  std::uint64_t ops_offered{0};   ///< recordable ops seen
  std::uint64_t ops_admitted{0};  ///< recorded (with weight 2^level)
  std::uint64_t ops_shed{0};      ///< dropped by the admit test
  std::uint32_t level_max{0};     ///< deepest level this interval
  std::uint32_t level_end{0};     ///< carry-out level after restore decay
  /// Admitted fraction of recordable ops. The counters are already
  /// weight-compensated; this is the evidence fraction behind them.
  double sample_coverage{1.0};

  bool shed() const { return ops_shed > 0; }
};

class LoadShedder {
 public:
  /// Throws std::invalid_argument when config.max_level >= 64.
  explicit LoadShedder(const LoadShedderConfig& config);

  bool enabled() const { return enabled_; }

  /// Admit test for one recordable op. Returns the recording weight: 1.0 at
  /// level 0, 2^level for an admitted sampled op, 0.0 for a shed op. Pure
  /// function of the offered-op sequence. Producer-thread only.
  double admit(const RecordOp& op) {
    if (!enabled_) return 1.0;
    ++offered_;
    while (budget_ != 0 && level_ < config_.max_level &&
           offered_ > (budget_ << level_)) {
      ++level_;
      if (level_ > level_max_) level_max_ = level_;
    }
    if (level_ == 0) {
      ++admitted_;
      return 1.0;
    }
    const std::uint64_t h = mix64(op.k_sip_dip ^ config_.hash_seed);
    if ((h & ((std::uint64_t{1} << level_) - 1)) != 0) {
      ++shed_;
      return 0.0;
    }
    ++admitted_;
    return std::ldexp(1.0, static_cast<int>(level_));
  }

  /// Seals the interval: returns its ShedReport, decays the level by the
  /// restore hysteresis, and resets the per-interval counters.
  ShedReport seal_interval();

  std::uint32_t level() const { return level_; }
  const LoadShedderConfig& config() const { return config_; }

 private:
  LoadShedderConfig config_;
  bool enabled_{false};
  std::uint64_t budget_{0};
  std::uint32_t level_{0};
  std::uint32_t level_max_{0};
  std::uint64_t offered_{0};
  std::uint64_t admitted_{0};
  std::uint64_t shed_{0};
};

}  // namespace hifind
