// SIMD linear-algebra kernels for sketch counter arrays.
//
// The detection epoch (interval close) is memory-pass bound: every
// forecaster step and every heavy-bucket scan walks multi-megabyte counter
// arrays, and the seed implementation walked them several times per step
// (copy, scale, accumulate, then a separate threshold scan). This layer
// provides the single-pass fused kernel the EWMA step (paper Eq. 1)
// compiles down to:
//
//   ewma_roll   err = o - fc;  fc = (1-a)*fc + a*o               (one pass)
//
// Observations are the per-interval int32 recording counters, read as
// o = scale*double(obs[i]) — one rounding, exact at scale 1 — so a
// forecaster rolls straight off a 4-byte counter grid without a widened
// copy; forecast state and errors are double.
//
// The roll kernel optionally emits the indices where err >= cut, so the
// per-stage heavy-bucket candidate list falls out of the forecast pass for
// free; given no output array it only rolls.
//
// The one recording kernel is the compact sketch's bit-run add. Bucket
// indices are not computed here: every sketch reads all its stages'
// indices from one stage-transposed table (StagedTabulation,
// common/hash.hpp), one scalar load per key byte, which a per-stage gather
// does not beat.
//
// Every kernel has a portable scalar implementation and an AVX2
// implementation (compiled when HIFIND_NATIVE is ON and the toolchain
// supports it), selected once at startup via cpuid. BIT-IDENTITY is a hard
// contract: the AVX2 bodies use only IEEE mul/add/sub and the exact int32
// widening (no FMA, and the TU is built with -ffp-contract=off), and the
// fused roll evaluates the exact per-element expressions of the scalar
// multi-pass sequence it replaces, so scalar vs. SIMD and fused vs. unfused
// produce bit-identical counters. Tests assert this property; the parallel
// detection epoch's determinism rests on it.
//
// The AVX2 backend earns its translation unit: a build without it lost
// every one of 6 alternating flood_nf5 replay pairs (perfbench/run.py
// --seed 1 --seconds 15, 4-CPU Xeon), pkts_per_s 2.64 M -> 2.01 M and
// alert_ms_p50 7.24 -> 9.30 ms (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>

namespace hifind::simd {

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

/// Name of the active backend: "avx2" or "scalar".
const char* active_backend();

/// Forces the portable scalar backend on (true) or restores the
/// best-available backend (false). For tests and benchmarks that compare
/// the two paths; not thread-safe against concurrent kernel calls.
void set_force_scalar(bool force);

}  // namespace hifind::simd
