#include "baseline/trw_ac.hpp"

#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"

namespace hifind {

TrwAc::TrwAc(const TrwAcConfig& config) : config_(config) {
  if (config.connection_cache_entries == 0 ||
      config.address_table_entries == 0) {
    throw std::invalid_argument("TRW-AC tables must be non-empty");
  }
  if (config.theta1 >= config.theta0 || config.theta0 >= 1.0 ||
      config.theta1 <= 0.0) {
    throw std::invalid_argument("TRW-AC requires 0 < theta1 < theta0 < 1");
  }
  step_success_ = std::log(config.theta1 / config.theta0);
  step_failure_ = std::log((1.0 - config.theta1) / (1.0 - config.theta0));
  log_eta1_ = std::log(config.detection_prob / config.false_positive_prob);
  log_eta0_ = std::log((1.0 - config.detection_prob) /
                       (1.0 - config.false_positive_prob));
  connections_.assign(config.connection_cache_entries, ConnEntry{});
  addresses_.assign(config.address_table_entries, AddrEntry{});
}

std::size_t TrwAc::conn_slot(std::uint64_t key) const {
  return static_cast<std::size_t>(mix64(key ^ mix64(config_.seed))) %
         connections_.size();
}

std::uint32_t TrwAc::conn_tag(std::uint64_t key) const {
  // Non-zero truncated tag from an independent mix; 0 marks an empty slot.
  const auto tag = static_cast<std::uint32_t>(
      mix64((key + 0x9e3779b97f4a7c15ULL) ^ mix64(config_.seed << 1)) >> 32);
  return tag == 0 ? 1 : tag;
}

void TrwAc::observe(const PacketRecord& p) {
  if (p.is_syn()) {
    const std::uint64_t key = pack_ip_ip(p.sip, p.dip);
    ConnEntry& e = connections_[conn_slot(key)];
    const std::uint32_t tag = conn_tag(key);
    if (e.tag == tag) {
      e.last_seen = p.ts;  // retransmission of a tracked attempt
      return;
    }
    if (e.tag != 0) {
      // Slot occupied by a DIFFERENT connection. An established occupant
      // absorbs the new attempt unrecorded (Weaver's aliasing); a half-open
      // occupant is overwritten, losing ITS evidence instead.
      if (e.established) {
        ++aliased_attempts_;
        return;
      }
      score(IPv4{e.sip}, /*success=*/false, p.ts);  // evicted half-open fails
    }
    e = ConnEntry{tag, p.ts, false, p.sip.addr};
    return;
  }
  if (p.is_synack()) {
    // Response from p.sip to initiator p.dip.
    const std::uint64_t key = pack_ip_ip(p.dip, p.sip);
    ConnEntry& e = connections_[conn_slot(key)];
    if (e.tag == conn_tag(key)) {
      if (!e.established) {
        e.established = true;
        score(p.dip, /*success=*/true, p.ts);
      }
      e.last_seen = p.ts;
    }
  }
}

void TrwAc::flush(Timestamp now) {
  for (ConnEntry& e : connections_) {
    if (e.tag == 0) continue;
    if (now >= e.last_seen + config_.idle_timeout_us) {
      if (!e.established) {
        score(IPv4{e.sip}, /*success=*/false, now);
      }
      e = ConnEntry{};
    }
  }
}

void TrwAc::score(IPv4 sip, bool success, Timestamp when) {
  AddrEntry& a = addresses_[static_cast<std::size_t>(
      mix64(std::uint64_t{sip.addr} ^ mix64(config_.seed + 3))) %
      addresses_.size()];
  if (a.decided_scanner) return;
  a.llr += success ? step_success_ : step_failure_;
  if (a.llr >= log_eta1_) {
    a.decided_scanner = true;
    alerts_.push_back(TrwAcAlert{sip, when});
  } else if (a.llr <= log_eta0_) {
    a.llr = 0.0;  // accept H0 and restart the walk (Jung et al. Sec. 3)
  }
}

std::size_t TrwAc::memory_bytes() const {
  return connections_.size() * sizeof(ConnEntry) +
         addresses_.size() * sizeof(AddrEntry);
}

double TrwAc::cache_occupancy() const {
  std::size_t used = 0;
  for (const ConnEntry& e : connections_) used += e.tag != 0 ? 1 : 0;
  return static_cast<double>(used) / static_cast<double>(connections_.size());
}

}  // namespace hifind
