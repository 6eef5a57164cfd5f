// Runtime SIMD dispatch for the inference inner loops.
//
// Every kernel in ops.cc / packed_weights.cc bottoms out in a handful of
// per-row primitive sweeps (axpy over fp32 / int8 / int4 weight rows, plus
// the 4x16 GEMM micro-tile over a k list). Historically those loops were compiled
// once at the translation unit's baseline ISA: a portable build
// (`DUET_NATIVE_ARCH=OFF`, the CI/default configuration) ran them at
// SSE2-width scalar speed, and only a `-march=native` build saw AVX2/AVX-512
// — so one portable binary could not serve at native speed.
//
// This header fixes that with a classic function-pointer dispatch table.
// The SAME kernel source (simd_kernels.inc) is compiled three times into
// per-tier translation units:
//
//   simd_kernels_scalar.cc   baseline ISA (x86-64 SSE2 / aarch64 NEON —
//                            NEON is the armv8 baseline, so the "scalar"
//                            tier auto-vectorizes to NEON there; no
//                            separate tier is needed)
//   simd_kernels_avx2.cc     -mavx2             (x86 only)
//   simd_kernels_avx512.cc   -mavx512f/bw/vl    (x86 only)
//
// and the CPU is probed ONCE (CPUID via __builtin_cpu_supports) the first
// time Kernels() is called; every kernel then reads its inner loops through
// the selected table. The three TUs differ only in their compile flags: the
// shared source is plain C++ loops (no intrinsics) that the compiler
// vectorizes to each tier's width.
//
// Bitwise contract — the load-bearing property of this design: all tiers
// execute IDENTICAL per-element arithmetic. The shared source uses plain
// multiply-then-add (never fused multiply-add), every tier TU is compiled
// with -ffp-contract=off so the compiler cannot contract those into FMAs,
// and none of the sweeps contains a cross-lane reduction (each output
// element's k-terms accumulate sequentially, k-ascending, exactly as the
// repo's batch-invariance contract requires). Wider registers change how
// many output elements progress per instruction, never the value any one
// element sees — so every tier is bitwise-identical to the scalar tier for
// every backend, and all of the repo's bitwise guarantees (dense==csr,
// permuted==identity, batch invariance) hold within AND across tiers.
// `ctest -L simd` enforces all of this per tier.
//
// Test hooks: the DUET_FORCE_ISA environment variable ("scalar" / "avx2" /
// "avx512" / "neon") clamps the startup selection to a tier the CPU
// actually supports (forcing an unsupported tier falls back to the best
// supported one, so a forced-avx512 run on an AVX2 host degrades safely).
// ForceIsa() does the same switch in-process so one test binary can compare
// tiers directly.
#ifndef DUET_TENSOR_SIMD_DISPATCH_H_
#define DUET_TENSOR_SIMD_DISPATCH_H_

#include <cstdint>
#include <string>

namespace duet::tensor::simd {

/// Instruction-set tiers, best-last. On aarch64 only kScalar exists (the
/// baseline already includes NEON).
enum class IsaTier : int32_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Per-tier inner-loop table. All pointers are non-null in every table.
///
/// The axpy family is the packed row sweep's inner loop: accumulate
/// `av * row[j]` into c[0..n) with backend-specific weight decoding. The
/// decode is fused into the sweep (int8 widen, int4 nibble unpack +
/// per-group scale); accumulation is always fp32.
struct KernelTable {
  /// c[j] += av * w[j]
  void (*axpy_f32)(float av, const float* w, float* c, int64_t n);
  /// c[j] += av * (float)q[j]  (int8 dequant scale applied in the epilogue)
  void (*axpy_i8)(float av, const int8_t* q, float* c, int64_t n);
  /// c[j] += av * ((float)nib(j) * gs[j]) where nib(j) is the signed int4
  /// unpacked from packed_weights.h's nibble layout (byte j/2, low nibble
  /// for even j) and gs is the per-group scale row for this k (PACKED
  /// column order). int4 dequant is in-kernel: the per-group scale cannot
  /// be deferred to the per-output epilogue.
  void (*axpy_i4)(float av, const uint8_t* nib, const float* gs, float* c, int64_t n);
  /// Full 4x16 register-blocked GEMM micro-tile over an ascending k list:
  /// C[0..4,0..16) += A(:, ks[i]) x B(i, :) for i = 0..nk, branch-free.
  /// A is a strided view, A(r, k) = a[r*rs + k*cs], so the forward
  /// (rs = lda, cs = 1), dW's transposed operand (rs = 1, cs = lda) and
  /// dX's packed gradient are read without a copy; B holds one 16-wide row
  /// per list entry. Unmasked GEMMs pass the identity list over a dense B
  /// panel. Masked training layers (tensor::MaskLayout) sort a MADE mask's
  /// columns by degree with the inference packs' rule
  /// (DegreeSortPermutation) and pass, per 16-column tile, the fixed list
  /// of k where any column is unmasked, against a panel of just those rows
  /// of W o M; callers start each such tile from zero. Every element still
  /// adds its terms k-ascending with mul+add, so the bits are those of the
  /// full sum for finite operands (the left-out terms are exact zeros).
  /// Zero A values are multiplied like any other: a per-k zero test costs
  /// more than it saves on training's ReLU and one-hot zeros.
  void (*micro4x16)(const float* a, int64_t rs, int64_t cs, const int32_t* ks, int64_t nk,
                    const float* b, int64_t ldb, float* c, int64_t ldc);
};

/// The active table. First call probes the CPU (honoring DUET_FORCE_ISA)
/// and caches the selection; later calls are one atomic load. Thread-safe.
const KernelTable& Kernels();

/// Tier behind Kernels() right now.
IsaTier ActiveIsa();

/// "scalar" / "avx2" / "avx512" — for bench/test JSON output. On aarch64
/// the scalar tier reports "neon" (NEON is the baseline ISA there).
const char* ActiveIsaName();

/// In-process tier switch for the parity tests: selects `name` if the CPU
/// supports it and returns true, otherwise leaves the selection unchanged
/// and returns false. Accepts the same names as DUET_FORCE_ISA. Not for
/// production use — switching tiers mid-request is safe (all tiers are
/// bitwise-identical) but pointless.
bool ForceIsa(const std::string& name);

/// Best tier this CPU supports (what Kernels() picks absent overrides).
IsaTier DetectIsa();

}  // namespace duet::tensor::simd

#endif  // DUET_TENSOR_SIMD_DISPATCH_H_
