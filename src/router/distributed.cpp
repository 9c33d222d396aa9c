#include "router/distributed.hpp"

#include <stdexcept>
#include <utility>

#include "detect/sketch_wire.hpp"

namespace hifind {

DistributedMonitor::DistributedMonitor(
    std::size_t num_routers, const SketchBankConfig& bank_config,
    const HifindDetectorConfig& detector_config, std::uint64_t splitter_seed)
    : detector_(detector_config), splitter_(num_routers, splitter_seed) {
  if (num_routers == 0) {
    throw std::invalid_argument("DistributedMonitor needs >=1 router");
  }
  banks_.reserve(num_routers);
  for (std::size_t i = 0; i < num_routers; ++i) {
    banks_.emplace_back(bank_config);  // same config => combinable
  }
}

void DistributedMonitor::feed(const PacketRecord& p) {
  banks_[splitter_.route(p)].record(p);
}

void DistributedMonitor::feed_at(std::size_t router, const PacketRecord& p) {
  banks_.at(router).record(p);
}

IntervalResult DistributedMonitor::end_interval(std::uint64_t interval) {
  std::vector<const SketchBank*> terms;
  terms.reserve(banks_.size());
  for (const SketchBank& b : banks_) terms.push_back(&b);
  SketchBank& combined = banks_.front();
  combined.merge_shards(terms);
  CoverageReport coverage;
  coverage.routers_total = banks_.size();
  coverage.routers_combined.resize(banks_.size());
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    coverage.routers_combined[i] = static_cast<std::uint32_t>(i);
  }
  IntervalResult result =
      detector_.process(combined, interval, std::move(coverage));
  for (SketchBank& b : banks_) b.clear();
  return result;
}

std::vector<std::uint8_t> DistributedMonitor::ship_and_clear(
    std::size_t router, std::uint64_t interval) {
  SketchBank& bank = banks_.at(router);
  std::vector<std::uint8_t> frame =
      serialize_frame(bank, static_cast<std::uint32_t>(router), interval);
  bank.clear();
  return frame;
}

std::size_t DistributedMonitor::bytes_shipped_per_interval() const {
  std::size_t total = 0;
  for (const SketchBank& b : banks_) total += frame_bytes(b.config());
  return total;
}

}  // namespace hifind
