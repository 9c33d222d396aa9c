// Distributed monitoring: per-router sketch recording plus central
// aggregation (paper Sec. 3.1, Figure 1c, and the Sec. 5.3.2 experiment).
//
// Each router records its share of the traffic into its own SketchBank. At
// every interval boundary the central site COMBINEs the banks — a few MB of
// linear state per router, not packet traces — with the one bank sum,
// SketchBank::merge_shards, in place into the first router's bank, and runs
// one HifindDetector on the sum. Sketch linearity guarantees the combined
// bank equals the bank a single router seeing all traffic would have built,
// so detection results are identical under any traffic split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/hifind.hpp"
#include "detect/sketch_bank.hpp"
#include "packet/packet.hpp"
#include "router/splitter.hpp"

namespace hifind {

class DistributedMonitor {
 public:
  /// @param num_routers  edge routers sharing the traffic.
  DistributedMonitor(std::size_t num_routers,
                     const SketchBankConfig& bank_config,
                     const HifindDetectorConfig& detector_config,
                     std::uint64_t splitter_seed = 97);

  /// Routes one packet to its (random) router's bank.
  void feed(const PacketRecord& p);

  /// Records a packet at a specific router (for non-random splits).
  void feed_at(std::size_t router, const PacketRecord& p);

  /// Sums all router banks into router 0's bank (in place: no bank is
  /// allocated), runs central detection on it, clears the banks.
  /// This is the perfect-network path: the result's CoverageReport always
  /// says full coverage. Deployments that cannot assume a perfect network
  /// pair ship_and_clear with the resilient collection layer
  /// (router/collector.hpp) instead.
  IntervalResult end_interval(std::uint64_t interval);

  /// Router-side half of resilient collection: serializes `router`'s bank as
  /// an HFB5 frame stamped (router, interval) and clears the bank for the
  /// next interval. The frame is what a real edge router would put on the
  /// wire toward the central site.
  std::vector<std::uint8_t> ship_and_clear(std::size_t router,
                                           std::uint64_t interval);

  std::size_t num_routers() const { return banks_.size(); }
  const SketchBank& bank(std::size_t router) const { return banks_[router]; }

  /// Bytes shipped router->central per interval: one HFB5 frame per router
  /// (frame_bytes). The paper's bandwidth argument: sketches, not traces,
  /// cross the network.
  std::size_t bytes_shipped_per_interval() const;

 private:
  std::vector<SketchBank> banks_;
  HifindDetector detector_;
  PacketSplitter splitter_;
};

}  // namespace hifind
