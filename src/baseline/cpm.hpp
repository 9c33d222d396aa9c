// CPM — Change-Point Monitoring SYN-flood detection (Wang, Zhang, Shin —
// INFOCOM 2002, "Detecting SYN flooding attacks").
//
// Detects floods from the AGGREGATE traffic only: per interval it computes
//     X_n = (#SYN - #FIN) / F_bar
// where F_bar is an EWMA of the per-interval #FIN (normalization makes the
// statistic traffic-volume independent), then applies a non-parametric CUSUM
//     y_n = max(0, y_{n-1} + X_n - a),
// alarming while y_n > N. Under normal traffic SYNs and FINs balance, so X_n
// hovers near 0; a flood's orphan SYNs push it up.
//
// Its two documented weaknesses are exactly what the HiFIND evaluation
// exercises: (1) no flow key — an alarm names no victim, so nothing can be
// mitigated (Table 1); (2) port scans also produce orphan SYNs, so a
// scan-heavy trace (LBL) raises persistent false flood alarms (Table 6).
#pragma once

#include <cstdint>
#include <vector>

#include "forecast/scalar.hpp"
#include "packet/packet.hpp"

namespace hifind {

struct CpmConfig {
  double cusum_offset{1.0};     ///< a: in-control drift removed per interval
  double cusum_threshold{2.0};  ///< N: alarm level
  double fin_ewma_alpha{0.2};   ///< smoothing of the FIN normalizer
};

class Cpm {
 public:
  explicit Cpm(const CpmConfig& config)
      : config_(config),
        fin_avg_(config.fin_ewma_alpha),
        cusum_(config.cusum_offset, config.cusum_threshold) {}

  /// Feeds one packet of the current interval.
  void observe(const PacketRecord& p) {
    if (p.is_syn()) ++syn_count_;
    // SYN/ACKs also carry SYN; count FIN on its own bit.
    if (p.is_fin()) ++fin_count_;
  }

  /// Closes the interval; returns true if CPM alarms for it.
  bool end_interval() {
    const double fins = static_cast<double>(fin_count_);
    const double f_bar = fin_avg_.mean_or(fins);
    const double x =
        (static_cast<double>(syn_count_) - fins) / (f_bar > 1.0 ? f_bar : 1.0);
    fin_avg_.update(fins);
    syn_count_ = 0;
    fin_count_ = 0;
    const bool alarmed = cusum_.update(x);
    alarm_history_.push_back(alarmed);
    return alarmed;
  }

  const std::vector<bool>& alarm_history() const { return alarm_history_; }
  double cusum_value() const { return cusum_.value(); }

  /// CPM keeps three scalars — its memory is negligible by design.
  std::size_t memory_bytes() const { return sizeof(*this); }

 private:
  CpmConfig config_;
  std::uint64_t syn_count_{0};
  std::uint64_t fin_count_{0};
  ScalarEwma fin_avg_;
  Cusum cusum_;
  std::vector<bool> alarm_history_;
};

}  // namespace hifind
