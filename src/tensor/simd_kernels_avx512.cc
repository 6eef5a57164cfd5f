// AVX-512 compilation of the shared SIMD kernel bodies (x86 only; this TU
// is empty elsewhere). Compiled with -mavx512f -mavx512bw -mavx512vl
// -ffp-contract=off (CMakeLists.txt): 16-wide fp32 lanes; the contract flag
// keeps the arithmetic mul+add so results stay bitwise-identical to the
// scalar tier. Only run when the CPUID probe in simd_dispatch.cc confirms
// AVX512F/BW/VL at runtime.
#if defined(__x86_64__) || defined(__i386__)

#include <cstdint>

#include "tensor/simd_dispatch.h"

#define DUET_SIMD_TIER_NS avx512_tier
#include "tensor/simd_kernels.inc"
#undef DUET_SIMD_TIER_NS

namespace duet::tensor::simd {
const KernelTable* Avx512Table() { return &avx512_tier::kTable; }
}  // namespace duet::tensor::simd

#endif  // x86
