#include "detect/load_shedder.hpp"

#include <algorithm>
#include <stdexcept>

namespace hifind {

LoadShedder::LoadShedder(const LoadShedderConfig& config)
    : config_(config),
      enabled_(config.enabled()),
      budget_(config.budget_ops_per_interval),
      level_(std::min(config.initial_level, config.max_level)),
      level_max_(level_) {
  // admit() shifts 64-bit words by the level.
  if (config.max_level >= 64) {
    throw std::invalid_argument("LoadShedderConfig::max_level must be < 64");
  }
}

ShedReport LoadShedder::seal_interval() {
  ShedReport report;
  report.ops_offered = offered_;
  report.ops_admitted = admitted_;
  report.ops_shed = shed_;
  report.level_max = level_max_;
  report.sample_coverage =
      offered_ == 0 ? 1.0
                    : static_cast<double>(admitted_) /
                          static_cast<double>(offered_);
  // Restore hysteresis: shed immediately under pressure, come back one
  // restore step per quiet interval so a sustained attack cannot flap the
  // rate every interval.
  const std::uint32_t restore = config_.restore_levels_per_interval;
  level_ = level_ > restore ? level_ - restore : 0;
  report.level_end = level_;
  level_max_ = level_;  // the carry-in level counts toward next interval's max
  offered_ = admitted_ = shed_ = 0;
  return report;
}

}  // namespace hifind
