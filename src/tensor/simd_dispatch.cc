#include "tensor/simd_dispatch.h"

#include <atomic>
#include <cstdlib>

namespace duet::tensor::simd {

// Per-tier tables, defined by the simd_kernels_*.cc translation units. The
// vector tiers exist only on x86.
const KernelTable* ScalarTable();
#if defined(__x86_64__) || defined(__i386__)
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();
#endif

namespace {

/// Selected tier + table, published together. The table pointer is the one
/// the kernels load on their hot paths (a single relaxed load per row
/// sweep); the tier enum rides along for ActiveIsa()/ActiveIsaName().
struct Selection {
  IsaTier tier;
  const KernelTable* table;
};

const Selection* SelectionFor(IsaTier tier) {
  static const Selection kScalarSel{IsaTier::kScalar, ScalarTable()};
#if defined(__x86_64__) || defined(__i386__)
  static const Selection kAvx2Sel{IsaTier::kAvx2, Avx2Table()};
  static const Selection kAvx512Sel{IsaTier::kAvx512, Avx512Table()};
  if (tier == IsaTier::kAvx2) return &kAvx2Sel;
  if (tier == IsaTier::kAvx512) return &kAvx512Sel;
#else
  (void)tier;
#endif
  return &kScalarSel;
}

/// Parses a DUET_FORCE_ISA / ForceIsa name. "neon" is accepted as an alias
/// for the scalar tier (NEON is the aarch64 baseline, so the scalar tier IS
/// the NEON tier there). Returns false on unknown names.
bool ParseTier(const std::string& name, IsaTier* out) {
  if (name == "scalar" || name == "neon") { *out = IsaTier::kScalar; return true; }
  if (name == "avx2") { *out = IsaTier::kAvx2; return true; }
  if (name == "avx512") { *out = IsaTier::kAvx512; return true; }
  return false;
}

/// Clamp a requested tier to what the CPU supports: an unsupported request
/// degrades to the best supported tier below it (never refuses to run — a
/// forced-avx512 test job on an AVX2 host still executes, one tier down).
IsaTier ClampToCpu(IsaTier requested) {
  const IsaTier best = DetectIsa();
  return requested <= best ? requested : best;
}

/// Startup selection: CPU probe, then the DUET_FORCE_ISA override (clamped
/// — forcing can only move DOWN from the probed tier, so a forced run is
/// always executable).
const Selection* InitialSelection() {
  IsaTier tier = DetectIsa();
  if (const char* force = std::getenv("DUET_FORCE_ISA")) {
    IsaTier forced;
    if (ParseTier(force, &forced)) tier = ClampToCpu(forced);
  }
  return SelectionFor(tier);
}

std::atomic<const Selection*> g_selection{nullptr};

const Selection& Active() {
  const Selection* sel = g_selection.load(std::memory_order_acquire);
  if (sel == nullptr) {
    // First use (or a benign race): recomputing is idempotent — every
    // thread derives the same selection from the same CPUID + env.
    sel = InitialSelection();
    g_selection.store(sel, std::memory_order_release);
  }
  return *sel;
}

}  // namespace

IsaTier DetectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return IsaTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
#endif
  return IsaTier::kScalar;
}

const KernelTable& Kernels() { return *Active().table; }

IsaTier ActiveIsa() { return Active().tier; }

const char* ActiveIsaName() {
  switch (ActiveIsa()) {
    case IsaTier::kScalar:
#if defined(__aarch64__)
      return "neon";
#else
      return "scalar";
#endif
    case IsaTier::kAvx2: return "avx2";
    case IsaTier::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ForceIsa(const std::string& name) {
  IsaTier tier;
  if (!ParseTier(name, &tier)) return false;
  if (ClampToCpu(tier) != tier) return false;  // CPU can't run it
  g_selection.store(SelectionFor(tier), std::memory_order_release);
  return true;
}

}  // namespace duet::tensor::simd
