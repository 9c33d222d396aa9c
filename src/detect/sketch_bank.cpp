#include "detect/sketch_bank.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/task_pool.hpp"

namespace hifind {
namespace {

/// Derives the per-sketch seed from the master seed and a role tag, so that
/// the ten sketches use independent hash families while two banks built from
/// the same master seed remain combinable sketch-by-sketch.
std::uint64_t role_seed(std::uint64_t master, std::uint64_t role) {
  return mix64(master ^ mix64(role));
}

/// Copies a sketch shape with a seed derived from the bank's master seed and
/// a role tag. The ten sketches get independent hash families; two banks
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

/// Saturation point of the |delta| sum: far above INT32_MAX, and far enough
/// below INT64_MAX that adding one clamped magnitude cannot overflow.
constexpr std::int64_t kAbsSumCap = std::int64_t{1} << 62;

/// One op's |delta| for the range bound, clamped to 2^32 (any larger value
/// already breaks the bound; NaN clamps too).
std::int64_t magnitude(double v) {
  const double m = std::fabs(v);
  return m < 4294967296.0 ? static_cast<std::int64_t>(m)
                          : std::int64_t{1} << 32;
}

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return std::min(a + b, kAbsSumCap);
}

}  // namespace

void check_record_weight(double weight) {
  if (!std::isfinite(weight) || weight != std::trunc(weight)) {
    throw std::invalid_argument(
        "recording weight must be an integer (int32 counters)");
  }
}

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
      synack_dip_dport_(derive(config.verification, config.seed, 25)) {}

void SketchBank::record(const PacketRecord& p, double weight) {
  check_record_weight(weight);
  RecordOp op;
  // Only SYN / SYN-ACK move the detection metric.
  if (!make_record_op(p, weight, op)) return;
  record_op(op, kGroupAll);
}

void SketchBank::record_op(const RecordOp& op, unsigned mask) {
  const std::int32_t delta = counter::narrow(op.delta);
  if (mask & kGroupRsSipDport) rs_sip_dport_.update(op.k_sip_dport, delta);
  if (mask & kGroupRsDipDport) rs_dip_dport_.update(op.k_dip_dport, delta);
  if (mask & kGroupRsSipDip) rs_sip_dip_.update(op.k_sip_dip, delta);
  if (mask & kGroupVerification) {
    verif_sip_dport_.update(op.k_sip_dport, delta);
    verif_dip_dport_.update(op.k_dip_dport, delta);
    verif_sip_dip_.update(op.k_sip_dip, delta);
  }
  if (mask & kGroupOsAndHistory) {
    // OS counts #SYN, SYNACK counts #SYN/ACK (service activity).
    KarySketch& sketch = op.syn ? os_dip_dport_ : synack_dip_dport_;
    sketch.update(op.k_dip_dport, counter::narrow(op.weight));
  }
  if (mask & kGroupTwoD) {
    // 2D sketches: secondary dimension is the field the primary aggregates
    // out.
    twod_sipdip_dport_.update(op.k_sip_dip, unpack_key_port(op.k_sip_dport),
                              delta);
    twod_sipdport_dip_.update(
        op.k_sip_dport, std::uint64_t{unpack_key_ip(op.k_dip_dport).addr},
        delta);
  }
  if (mask & kGroupMeta) {
    ++packets_recorded_;
    abs_delta_sum_ = sat_add(abs_delta_sum_, magnitude(op.delta));
  }
}

void SketchBank::record_ops(std::span<const RecordOp> ops, unsigned mask) {
  // Sketch-major: each sketch consumes the entire span (in 256-op staged
  // chunks) before the next sketch starts, so the counter lines it pulls in
  // on its first chunks stay cache-resident for the rest of its turn. An
  // op-major nest would cycle all ~15 MB of bank state between any one
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
        kd[j] = {ops[base + j].*key, counter::narrow(ops[base + j].delta)};
      }
      sketch.update_batch(std::span<const KeyDelta>(kd.data(), n));
    }
  };
  // Direction-filtered feed (OS counts SYNs, SYNACK counts SYN/ACKs): the
  // kept subsequence preserves stream order.
  const auto feed_dir = [&](KarySketch& sketch, bool want_syn) {
    std::size_t m = 0;
    for (const auto& op : ops) {
      if (op.syn != want_syn) continue;
      kd[m++] = {op.k_dip_dport, counter::narrow(op.weight)};
      if (m == kChunk) {
        sketch.update_batch(std::span<const KeyDelta>(kd.data(), m));
        m = 0;
      }
    }
    if (m > 0) sketch.update_batch(std::span<const KeyDelta>(kd.data(), m));
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
    feed_dir(synack_dip_dport_, false);
  }
  if (mask & kGroupTwoD) {
    // 2D sketches: secondary dimension is the field the primary aggregates
    // out.
    feed_2d(twod_sipdip_dport_, [](const RecordOp& op) {
      return KeyDelta2d{op.k_sip_dip,
                        std::uint64_t{unpack_key_port(op.k_sip_dport)},
                        counter::narrow(op.delta)};
    });
    feed_2d(twod_sipdport_dip_, [](const RecordOp& op) {
      return KeyDelta2d{op.k_sip_dport,
                        std::uint64_t{unpack_key_ip(op.k_dip_dport).addr},
                        counter::narrow(op.delta)};
    });
  }
  if (mask & kGroupMeta) {
    packets_recorded_ += ops.size();
    std::int64_t sum = abs_delta_sum_;
    for (const RecordOp& op : ops) sum = sat_add(sum, magnitude(op.delta));
    abs_delta_sum_ = sum;
  }
}

std::array<const CounterGrid32*, SketchBank::kNumIntervalGrids>
SketchBank::interval_grids() const {
  return {&rs_sip_dport_.grid(),      &rs_dip_dport_.grid(),
          &rs_sip_dip_.grid(),        &verif_sip_dport_.grid(),
          &verif_dip_dport_.grid(),   &verif_sip_dip_.grid(),
          &os_dip_dport_.grid(),      &twod_sipdip_dport_.grid(),
          &twod_sipdport_dip_.grid(), &synack_dip_dport_.grid()};
}

std::array<CounterGrid32*, SketchBank::kNumIntervalGrids>
SketchBank::interval_grids() {
  const auto in = std::as_const(*this).interval_grids();
  std::array<CounterGrid32*, kNumIntervalGrids> out;
  for (std::size_t i = 0; i < kNumIntervalGrids; ++i) {
    out[i] = const_cast<CounterGrid32*>(in[i]);
  }
  return out;
}

bool SketchBank::counters_in_range() const {
  return abs_delta_sum_ <= std::numeric_limits<std::int32_t>::max();
}

void SketchBank::bound_from_counters() {
  // A merged counter is the sum of its terms' counters, and a merged stage
  // sum the sum of their stage sums: bounding each term by its largest
  // stage sum of |counter| (and its largest single |counter|, for the
  // compact bit tail and the 2D cells) keeps the summed bound sound.
  std::int64_t bound = 0;
  for (const CounterGrid32* g : interval_grids()) {
    const auto c = g->counters();
    for (std::size_t h = 0; h < g->rows(); ++h) {
      std::int64_t row = 0;
      for (std::size_t b = 0; b < g->cols(); ++b) {
        row += std::abs(std::int64_t{c[h * g->cols() + b]});
      }
      bound = std::max(bound, row);
    }
    for (const std::int32_t v : c) {
      bound = std::max(bound, std::abs(std::int64_t{v}));
    }
  }
  abs_delta_sum_ = bound;
}

void SketchBank::clear() {
  for (CounterGrid32* g : interval_grids()) g->clear();
  packets_recorded_ = 0;
  abs_delta_sum_ = 0;
}

void SketchBank::accumulate(const SketchBank& other) {
  if (!combinable_with(other)) {
    throw std::invalid_argument(
        "SketchBank::accumulate: banks have different shape or seed");
  }
  const auto dst = interval_grids();
  const auto src = other.interval_grids();
  for (std::size_t i = 0; i < kNumIntervalGrids; ++i) {
    dst[i]->accumulate(*src[i]);
  }
  packets_recorded_ += other.packets_recorded_;
  abs_delta_sum_ = sat_add(abs_delta_sum_, other.abs_delta_sum_);
}

SketchBank SketchBank::combine(std::span<const SketchBank* const> banks) {
  if (banks.empty()) {
    throw std::invalid_argument("SketchBank::combine: no terms");
  }
  // Rebuild from the ORIGINAL (pre-seeding) master config; the constructor
  // re-derives identical per-sketch seeds, so shapes match exactly.
  SketchBank out(banks.front()->config());
  for (const SketchBank* bank : banks) out.accumulate(*bank);
  return out;
}

namespace {

/// Projection of a bank onto its i-th interval grid.
auto grid_at(std::size_t i) {
  return [i](const SketchBank& bank) -> const CounterGrid32& {
    return *bank.interval_grids()[i];
  };
}

}  // namespace

void SketchBank::merge_shards(std::span<const SketchBank* const> shards,
                              TaskPool* pool) {
  if (shards.empty()) {
    throw std::invalid_argument("SketchBank::merge_shards: no shards");
  }
  if (shards.size() > kMaxShards) {
    throw std::invalid_argument("SketchBank::merge_shards: too many shards");
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if ((i > 0 && shards[i] == this) || !combinable_with(*shards[i])) {
      throw std::invalid_argument(
          "SketchBank::merge_shards: a later shard aliases the destination "
          "or a shard has a different shape/seed");
    }
  }
  // One task per grid: the reductions touch disjoint destination arrays, so
  // they fan out on the pool with no further coordination; a null/inline
  // pool degenerates to the sequential merge.
  const auto dst = interval_grids();
  const auto run = [pool](auto task) {
    if (pool != nullptr) {
      pool->submit(task);
    } else {
      task();
    }
  };
  for (std::size_t i = 0; i < kNumIntervalGrids; ++i) {
    run([&dst, shards, i] { dst[i]->combine_into(shards, grid_at(i)); });
  }
  if (pool != nullptr) pool->wait_idle();

  std::uint64_t packets = 0;
  std::int64_t abs_sum = 0;
  for (const SketchBank* shard : shards) {
    packets += shard->packets_recorded_;
    abs_sum = sat_add(abs_sum, shard->abs_delta_sum_);
  }
  packets_recorded_ = packets;
  abs_delta_sum_ = abs_sum;
}

std::size_t SketchBank::memory_bytes() const {
  std::size_t total = 0;
  for (const CounterGrid32* g : interval_grids()) total += g->memory_bytes();
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

}  // namespace hifind
