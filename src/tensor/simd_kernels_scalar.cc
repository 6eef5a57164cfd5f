// Baseline-ISA compilation of the shared SIMD kernel bodies. "Scalar" means
// "the target's default ISA": plain x86-64 SSE2, or NEON on aarch64 (NEON is
// the armv8-a baseline, which is why there is no separate NEON tier — this
// TU already auto-vectorizes to it). Compiled with -ffp-contract=off like
// every tier (CMakeLists.txt) so the arithmetic stays mul+add everywhere.
#include <cstdint>

#include "tensor/simd_dispatch.h"

#define DUET_SIMD_TIER_NS scalar_tier
#include "tensor/simd_kernels.inc"
#undef DUET_SIMD_TIER_NS

namespace duet::tensor::simd {
const KernelTable* ScalarTable() { return &scalar_tier::kTable; }
}  // namespace duet::tensor::simd
