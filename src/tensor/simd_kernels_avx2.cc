// AVX2 compilation of the shared SIMD kernel bodies (x86 only; this TU is
// empty elsewhere). Compiled with -mavx2 -ffp-contract=off
// (CMakeLists.txt): 8-wide fp32 lanes, with the contract flag keeping the
// arithmetic mul+add so results stay bitwise-identical to the scalar tier.
// Only run when the CPUID probe in simd_dispatch.cc confirms AVX2 at
// runtime.
#if defined(__x86_64__) || defined(__i386__)

#include <cstdint>

#include "tensor/simd_dispatch.h"

#define DUET_SIMD_TIER_NS avx2_tier
#include "tensor/simd_kernels.inc"
#undef DUET_SIMD_TIER_NS

namespace duet::tensor::simd {
const KernelTable* Avx2Table() { return &avx2_tier::kTable; }
}  // namespace duet::tensor::simd

#endif  // x86
