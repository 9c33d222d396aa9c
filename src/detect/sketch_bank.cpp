#include "detect/sketch_bank.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/task_pool.hpp"

namespace hifind {
namespace {

/// Derives the per-sketch seed from the master seed and a role tag, so that
/// the nine sketches use independent hash families while two banks built from
/// the same master seed remain combinable sketch-by-sketch.
std::uint64_t role_seed(std::uint64_t master, std::uint64_t role) {
  return mix64(master ^ mix64(role));
}

/// Copies a sketch shape with a seed derived from the bank's master seed and
/// a role tag. The nine sketches get independent hash families; two banks
/// built from equal configs derive identical seeds and stay combinable.
/// The caller's config is stored untouched, so combine() can reconstruct a
/// bank from a stored config without double-deriving seeds.
ReversibleSketchConfig derive(ReversibleSketchConfig c, std::uint64_t master,
                              std::uint64_t role) {
  c.seed = role_seed(master, role);
  return c;
}
KarySketchConfig derive(KarySketchConfig c, std::uint64_t master,
                        std::uint64_t role) {
  c.seed = role_seed(master, role);
  return c;
}
Sketch2dConfig derive(Sketch2dConfig c, std::uint64_t master,
                      std::uint64_t role) {
  c.seed = role_seed(master, role);
  return c;
}
CompactInvertibleConfig derive(CompactInvertibleConfig c, std::uint64_t master,
                               std::uint64_t role) {
  c.seed = role_seed(master, role);
  return c;
}

/// Assembles one invertible-sketch config for a bank role: both backend
/// shapes get role-derived seeds so a backend flip alone never changes which
/// hash families the OTHER backend would use.
InvertibleSketchConfig derive_inv(const SketchBankConfig& bank,
                                  const ReversibleSketchConfig& rs,
                                  const CompactInvertibleConfig& ci,
                                  std::uint64_t role) {
  return InvertibleSketchConfig{
      .kind = bank.backend,
      .reversible = derive(rs, bank.seed, role),
      .compact = derive(ci, bank.seed, role),
  };
}

}  // namespace

SketchBank::SketchBank(const SketchBankConfig& config)
    : config_(config),
      rs_sip_dport_(derive_inv(config, config.rs48, config.ci48, 11)),
      rs_dip_dport_(derive_inv(config, config.rs48, config.ci48, 12)),
      rs_sip_dip_(derive_inv(config, config.rs64, config.ci64, 13)),
      verif_sip_dport_(derive(config.verification, config.seed, 21)),
      verif_dip_dport_(derive(config.verification, config.seed, 22)),
      verif_sip_dip_(derive(config.verification, config.seed, 23)),
      os_dip_dport_(derive(config.original, config.seed, 24)),
      twod_sipdip_dport_(derive(config.twod, config.seed, 31)),
      twod_sipdport_dip_(derive(config.twod, config.seed, 32)),
      synack_history_(derive(config.verification, config.seed, 25)) {}

void SketchBank::record(const PacketRecord& p, double weight) {
  RecordOp op;
  // Only SYN / SYN-ACK move the detection metric.
  if (!make_record_op(p, weight, op)) return;
  record_op(op, kGroupAll);
}

void SketchBank::record_op(const RecordOp& op, unsigned mask) {
  if (mask & kGroupRsSipDport) rs_sip_dport_.update(op.k_sip_dport, op.delta);
  if (mask & kGroupRsDipDport) rs_dip_dport_.update(op.k_dip_dport, op.delta);
  if (mask & kGroupRsSipDip) rs_sip_dip_.update(op.k_sip_dip, op.delta);
  if (mask & kGroupVerification) {
    verif_sip_dport_.update(op.k_sip_dport, op.delta);
    verif_dip_dport_.update(op.k_dip_dport, op.delta);
    verif_sip_dip_.update(op.k_sip_dip, op.delta);
  }
  if (mask & kGroupOsAndHistory) {
    if (op.syn) {
      os_dip_dport_.update(op.k_dip_dport, op.weight);  // OS: #SYN only
    } else {
      synack_history_.update(op.k_dip_dport, op.weight);  // lifetime activity
    }
  }
  if (mask & kGroupTwoD) {
    // 2D sketches: secondary dimension is the field the primary aggregates
    // out.
    twod_sipdip_dport_.update(op.k_sip_dip, unpack_key_port(op.k_sip_dport),
                              op.delta);
    twod_sipdport_dip_.update(
        op.k_sip_dport, std::uint64_t{unpack_key_ip(op.k_dip_dport).addr},
        op.delta);
  }
  if (mask & kGroupMeta) ++packets_recorded_;
}

void SketchBank::record_ops(std::span<const RecordOp> ops, unsigned mask) {
  // Sketch-major: each sketch consumes the entire span (in 256-op staged
  // chunks) before the next sketch starts, so the counter lines it pulls in
  // on its first chunks stay cache-resident for the rest of its turn. An
  // op-major nest would cycle all ~27 MB of bank state between any one
  // sketch's 256-op turns, leaving every sketch cold at every turn (it
  // measured ~25% slower on the million-flow span). Each sketch still sees
  // the full op stream in order, so counters and stage sums are
  // bit-identical to record_op per op.
  constexpr std::size_t kChunk = 256;
  std::array<KeyDelta, kChunk> kd;
  std::array<KeyDelta2d, kChunk> kd2;
  const auto feed = [&](auto& sketch, std::uint64_t RecordOp::* key) {
    for (std::size_t base = 0; base < ops.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, ops.size() - base);
      for (std::size_t j = 0; j < n; ++j) {
        kd[j] = {ops[base + j].*key, ops[base + j].delta};
      }
      sketch.update_batch(std::span<const KeyDelta>(kd.data(), n));
    }
  };
  // Direction-filtered feed (OS sketch counts SYNs, history counts
  // SYN/ACKs): the kept subsequence preserves stream order.
  const auto feed_dir = [&](KarySketch& sketch, bool want_syn) {
    std::size_t m = 0;
    for (const auto& op : ops) {
      if (op.syn != want_syn) continue;
      kd[m++] = {op.k_dip_dport, op.weight};
      if (m == kChunk) {
        sketch.update_batch(std::span<const KeyDelta>(kd.data(), m));
        m = 0;
      }
    }
    if (m > 0) {
      sketch.update_batch(std::span<const KeyDelta>(kd.data(), m));
    }
  };
  const auto feed_2d = [&](TwoDSketch& sketch, auto&& cell) {
    for (std::size_t base = 0; base < ops.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, ops.size() - base);
      for (std::size_t j = 0; j < n; ++j) kd2[j] = cell(ops[base + j]);
      sketch.update_batch(std::span<const KeyDelta2d>(kd2.data(), n));
    }
  };
  if (mask & kGroupRsSipDport) feed(rs_sip_dport_, &RecordOp::k_sip_dport);
  if (mask & kGroupRsDipDport) feed(rs_dip_dport_, &RecordOp::k_dip_dport);
  if (mask & kGroupRsSipDip) feed(rs_sip_dip_, &RecordOp::k_sip_dip);
  if (mask & kGroupVerification) {
    feed(verif_sip_dport_, &RecordOp::k_sip_dport);
    feed(verif_dip_dport_, &RecordOp::k_dip_dport);
    feed(verif_sip_dip_, &RecordOp::k_sip_dip);
  }
  if (mask & kGroupOsAndHistory) {
    feed_dir(os_dip_dport_, true);
    feed_dir(synack_history_, false);
  }
  if (mask & kGroupTwoD) {
    // 2D sketches: secondary dimension is the field the primary aggregates
    // out.
    feed_2d(twod_sipdip_dport_, [](const RecordOp& op) {
      return KeyDelta2d{op.k_sip_dip,
                        std::uint64_t{unpack_key_port(op.k_sip_dport)},
                        op.delta};
    });
    feed_2d(twod_sipdport_dip_, [](const RecordOp& op) {
      return KeyDelta2d{op.k_sip_dport,
                        std::uint64_t{unpack_key_ip(op.k_dip_dport).addr},
                        op.delta};
    });
  }
  if (mask & kGroupMeta) packets_recorded_ += ops.size();
}

std::array<const CounterGrid*, SketchBank::kNumGrids> SketchBank::grids()
    const {
  return {&rs_sip_dport_.grid(),      &rs_dip_dport_.grid(),
          &rs_sip_dip_.grid(),        &verif_sip_dport_.grid(),
          &verif_dip_dport_.grid(),   &verif_sip_dip_.grid(),
          &os_dip_dport_.grid(),      &twod_sipdip_dport_.grid(),
          &twod_sipdport_dip_.grid(), &synack_history_.grid()};
}

std::array<CounterGrid*, SketchBank::kNumGrids> SketchBank::grids() {
  const auto in = std::as_const(*this).grids();
  std::array<CounterGrid*, kNumGrids> out;
  for (std::size_t i = 0; i < kNumGrids; ++i) {
    out[i] = const_cast<CounterGrid*>(in[i]);
  }
  return out;
}

void SketchBank::clear() {
  const auto g = grids();
  for (std::size_t i = 0; i < kNumGrids; ++i) {
    if (i != kHistoryGrid) g[i]->clear();
  }
  packets_recorded_ = 0;
}

void SketchBank::reset_all() {
  for (CounterGrid* g : grids()) g->clear();
  packets_recorded_ = 0;
}

void SketchBank::accumulate(const SketchBank& other, double coeff) {
  if (!combinable_with(other)) {
    throw std::invalid_argument(
        "SketchBank::accumulate: banks have different shape or seed");
  }
  const auto dst = grids();
  const auto src = other.grids();
  for (std::size_t i = 0; i < kNumGrids; ++i) {
    dst[i]->accumulate(*src[i], coeff);
  }
  packets_recorded_ += other.packets_recorded_;
}

SketchBank SketchBank::combine(
    std::span<const std::pair<double, const SketchBank*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("SketchBank::combine: no terms");
  }
  // Rebuild from the ORIGINAL (pre-seeding) master config; the constructor
  // re-derives identical per-sketch seeds, so shapes match exactly.
  SketchBank out(terms.front().second->config());
  for (const auto& [coeff, bank] : terms) {
    out.accumulate(*bank, coeff);
  }
  return out;
}

namespace {

/// Projection of a bank-level COMBINE term onto the bank's i-th grid.
auto grid_at(std::size_t i) {
  return [i](const SketchBank& bank) -> const CounterGrid& {
    return *bank.grids()[i];
  };
}

}  // namespace

void SketchBank::combine_into(
    std::span<const std::pair<double, const SketchBank*>> terms) {
  if (terms.empty()) {
    throw std::invalid_argument("SketchBank::combine_into: no terms");
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!combinable_with(*terms[i].second)) {
      throw std::invalid_argument(
          "SketchBank::combine_into: banks have different shape or seed");
    }
    if (i > 0 && terms[i].second == this) {
      throw std::invalid_argument(
          "SketchBank::combine_into: destination may only alias term 0");
    }
  }
  std::uint64_t packets = 0;
  for (const auto& [coeff, bank] : terms) {
    (void)coeff;
    packets += bank->packets_recorded_;
  }
  const auto g = grids();
  for (std::size_t i = 0; i < kNumGrids; ++i) {
    g[i]->combine_into(terms, grid_at(i));
  }
  packets_recorded_ = packets;
}

void SketchBank::merge_shards(std::span<const SketchBank* const> shards,
                              TaskPool* pool) {
  if (shards.empty()) {
    throw std::invalid_argument("SketchBank::merge_shards: no shards");
  }
  if (shards.size() > kMaxShards) {
    throw std::invalid_argument("SketchBank::merge_shards: too many shards");
  }
  for (const SketchBank* shard : shards) {
    if (shard == this || !combinable_with(*shard)) {
      throw std::invalid_argument(
          "SketchBank::merge_shards: shard aliases the destination or has a "
          "different shape/seed");
    }
  }
  // Unit-coefficient terms, staged once; every task reads them concurrently.
  std::array<std::pair<double, const SketchBank*>, kMaxShards> terms;
  for (std::size_t i = 0; i < shards.size(); ++i) terms[i] = {1.0, shards[i]};
  const std::span<const std::pair<double, const SketchBank*>> span(
      terms.data(), shards.size());

  // One task per grid: the reductions touch disjoint destination arrays, so
  // they fan out on the pool with no further coordination; a null/inline
  // pool degenerates to the sequential merge.
  const auto dst = grids();
  for (std::size_t i = 0; i < kNumGrids; ++i) {
    auto task = [&dst, span, i] {
      if (i == kHistoryGrid) {
        // The lifetime history is CUMULATIVE: shards carry only this
        // interval's SYN/ACK deltas (they are reset after every merge),
        // which accumulate onto the merged bank's history in shard order.
        for (const auto& [coeff, bank] : span) {
          dst[i]->accumulate(*bank->grids()[i], coeff);
        }
      } else {
        dst[i]->combine_into(span, grid_at(i));
      }
    };
    if (pool != nullptr) {
      pool->submit(task);
    } else {
      task();
    }
  }
  if (pool != nullptr) pool->wait_idle();

  std::uint64_t packets = 0;
  for (const SketchBank* shard : shards) {
    packets += shard->packets_recorded_;
  }
  packets_recorded_ = packets;
}

std::size_t SketchBank::memory_bytes() const {
  std::size_t total = 0;
  for (const CounterGrid* g : grids()) total += g->memory_bytes();
  return total;
}

std::size_t SketchBank::memory_bytes_hw() const {
  std::size_t total = 0;
  for (const CounterGrid* g : grids()) total += g->memory_bytes_hw();
  return total;
}

std::size_t SketchBank::accesses_per_packet() const {
  return rs_sip_dport_.accesses_per_update() +
         rs_dip_dport_.accesses_per_update() +
         rs_sip_dip_.accesses_per_update() +
         verif_sip_dport_.accesses_per_update() +
         verif_dip_dport_.accesses_per_update() +
         verif_sip_dip_.accesses_per_update() +
         os_dip_dport_.accesses_per_update() +
         twod_sipdip_dport_.accesses_per_update() +
         twod_sipdport_dip_.accesses_per_update();
}

std::size_t SketchBank::bind_memory_to_node(int node) {
  std::size_t bound = 0;
  for (CounterGrid* g : grids()) {
    if (g->bind_to_node(node)) ++bound;
  }
  return bound;
}

}  // namespace hifind
