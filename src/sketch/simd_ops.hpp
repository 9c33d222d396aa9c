// SIMD linear-algebra kernels for sketch counter arrays.
//
// The detection epoch (interval close) is memory-pass bound: every
// forecaster step and every heavy-bucket scan walks multi-megabyte counter
// arrays, and the seed implementation walked them several times per step
// (copy, scale, accumulate, then a separate threshold scan). This layer
// provides the single-pass fused kernels those phases compile down to:
//
//   accumulate  y += c*x                                         (double)
//   ewma_roll   err = o - fc;  fc = (1-a)*fc + a*o               (one pass)
//   holt_roll   Holt level/trend/error update                    (one pass)
//   ma_roll     err = o - inv_n*sum                              (one pass)
//
// Observations are the per-interval int32 recording counters, read as
// o = scale*double(obs[i]) — one rounding, exact at scale 1 — so a
// forecaster rolls straight off a 4-byte counter grid without a widened
// copy; forecast state and errors are double.
//
// Each roll kernel optionally emits the indices where err >= cut, so the
// per-stage heavy-bucket candidate list falls out of the forecast pass for
// free; given no output array it only rolls.
//
// Every kernel has a portable scalar implementation and an AVX2
// implementation (compiled when HIFIND_NATIVE is ON and the toolchain
// supports it), selected once at startup via cpuid. BIT-IDENTITY is a hard
// contract: the AVX2 bodies use only IEEE mul/add/sub and the exact int32
// widening (no FMA, and the TU is built with -ffp-contract=off), and every
// fused kernel evaluates the exact per-element expressions of the scalar
// multi-pass sequence it replaces, so scalar vs. SIMD and fused vs. unfused
// produce bit-identical counters. Tests assert this property; the parallel
// detection epoch's determinism rests on it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hifind::simd {

/// y += c * x over n doubles (the forecast-state accumulate() inner loop).
void accumulate(double* y, const double* x, std::size_t n, double c);

/// Fused EWMA step over n counters, o = scale*double(obs[i]):
///   err[i] = o - fc[i]
///   fc[i]  = ((1-alpha)*fc[i]) + (alpha*o)
/// Heavy-candidate collection: when out_idx is non-null (caller guarantees
/// room for n entries), appends every index i with err[i] >= cut, in
/// ascending order, and returns the number emitted. With out_idx == nullptr
/// nothing is emitted, `cut` is ignored and the result is 0.
std::size_t ewma_roll(double* fc, const std::int32_t* obs, double scale,
                      double* err, std::size_t n, double alpha, double cut,
                      std::uint32_t* out_idx);

/// Fused Holt (double-exponential) step over n counters, o as in ewma_roll:
///   f      = level[i] + trend[i]
///   err[i] = o - f
///   nl     = ((1-alpha)*f) + (alpha*o)
///   d      = nl - level[i]
///   trend[i] = ((1-beta)*trend[i]) + (beta*d)
///   level[i] = nl
/// Collection as in ewma_roll.
std::size_t holt_roll(double* level, double* trend, const std::int32_t* obs,
                      double scale, double* err, std::size_t n, double alpha,
                      double beta, double cut, std::uint32_t* out_idx);

/// Fused moving-average error: err[i] = o - inv_n*sum[i], o as in
/// ewma_roll. Collection as in ewma_roll.
std::size_t ma_roll(const double* sum, const std::int32_t* obs, double scale,
                    double* err, std::size_t n, double inv_n, double cut,
                    std::uint32_t* out_idx);

/// Compact-sketch bit-run update: run[b] += delta, modulo 2^32, for every
/// set bit b < nbits of `bits` (nbits in [1, 64]). The scalar backend walks
/// the set bits; the AVX2 backend does one masked 8-lane add per key byte
/// (6 vector read-modify-writes for a 48-bit key, 8 for a 64-bit one).
/// Integer arithmetic, so both leave identical counters.
void add_bit_run(std::int32_t* run, std::uint64_t bits, int nbits,
                 std::int32_t delta);

/// The active backend's add_bit_run, resolved once for a loop that calls it
/// per operand.
using AddBitRunFn = void (*)(std::int32_t*, std::uint64_t, int, std::int32_t);
AddBitRunFn add_bit_run_kernel();

/// Batched byte-table hash: out[i] = XOR over b < nbytes of
/// table[b*256 + ((keys[i] >> 8*b) & 0xff)]. This is the shared shape of
/// every bucket-index computation on the recording hot path: tabulation
/// hashing XORs eight per-byte tables, and reversible-sketch modular
/// hashing concatenates per-word sub-indices — which, with each sub-index
/// pre-shifted into its disjoint bit range, IS an XOR fold over per-byte
/// tables. The AVX2 backend gathers 4 keys' table entries per step; being
/// pure integer arithmetic it is EXACTLY equal to the scalar backend (no
/// FP-contraction caveats apply), so batch-index precomputation is
/// bit-identical to per-op hashing by construction.
/// `nbytes` must be in [1, 8]; `table` holds nbytes*256 entries.
void tab_hash64(const std::uint64_t* keys, std::size_t n,
                const std::uint64_t* table, int nbytes, std::uint64_t* out);

/// Name of the active backend: "avx2" or "scalar".
const char* active_backend();

/// Forces the portable scalar backend on (true) or restores the
/// best-available backend (false). For tests and benchmarks that compare
/// the two paths; not thread-safe against concurrent kernel calls.
void set_force_scalar(bool force);

}  // namespace hifind::simd
