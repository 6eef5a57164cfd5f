#include "tensor/packed_weights.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/fault_injector.h"
#include "tensor/simd_dispatch.h"

namespace duet::tensor {

namespace {

/// Process-wide PackWeights invocation count; see PackWeightsCalls().
std::atomic<uint64_t> g_pack_calls{0};

/// Same work threshold as the dense GEMM: parallelize only when the dense
/// equivalent would (CSR does strictly less work, so this is conservative).
inline bool PackedParallel(int64_t m, int64_t k, int64_t n) {
  return m * k * n > (1 << 18);
}

/// CSR row sweep for one input row of `a`: for k ascending, add
/// av * W[k, :]'s nonzero runs into the output row with contiguous SIMD
/// inner loops. Per output element the nonzero terms arrive k-ascending —
/// the same order as the dense kernels — and the skipped terms are exact
/// zeros, so this is bitwise-equal to the dense accumulation (a skipped
/// +-0.0f term never changes a finite accumulator that is never -0.0).
/// Templated over the run-bound width. For permuted packs the output row is
/// in PACKED column space (typically one run per row); the epilogue gathers.
template <typename Idx>
inline void CsrRowAccumT(const simd::KernelTable& kt, const PackedWeights& w,
                         const Idx* run_start, const Idx* run_len, const float* arow,
                         float* crow) {
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = arow[k];
    if (av == 0.0f) continue;  // input sparsity: one-hot / wildcard zeros
    const float* vals = w.values.data() + w.val_ptr[static_cast<size_t>(k)];
    const int32_t r0 = w.row_ptr[static_cast<size_t>(k)];
    const int32_t r1 = w.row_ptr[static_cast<size_t>(k) + 1];
    for (int32_t r = r0; r < r1; ++r) {
      const int64_t len = run_len[r];
      kt.axpy_f32(av, vals, crow + run_start[r], len);
      vals += len;
    }
  }
}

inline void CsrRowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                        const float* arow, float* crow) {
  if (w.run_start32.empty()) {
    CsrRowAccumT(kt, w, w.run_start16.data(), w.run_len16.data(), arow, crow);
  } else {
    CsrRowAccumT(kt, w, w.run_start32.data(), w.run_len32.data(), arow, crow);
  }
}

/// Per-row nonzero prefix length in packed column space: permuted packs stop
/// each row sweep here and skip the structural-zero tail; identity packs
/// sweep the full width.
inline int64_t RowPrefixLen(const PackedWeights& w, int64_t k) {
  if (!w.row_len16.empty()) return w.row_len16[static_cast<size_t>(k)];
  if (!w.row_len32.empty()) return w.row_len32[static_cast<size_t>(k)];
  return w.out;
}

/// Dense fp32 row sweep with the prefix skip (permuted packs) — the same
/// k-ascending zero-skip accumulation as the dense GEMV fast path, so the
/// gathered result is bitwise-equal to the unpermuted kernels.
inline void DenseRowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                          const float* arow, float* crow) {
  const float* wp = w.dense_data();
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = arow[k];
    if (av == 0.0f) continue;
    kt.axpy_f32(av, wp + k * w.out, crow, RowPrefixLen(w, k));
  }
}

/// Int8 row sweep for one input row: fp32 accumulation of av * q[k, :]. The
/// dequantization scale is applied once per output in the epilogue, not per
/// term, so the accumulator stays a plain fp32 dot product.
inline void Int8RowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                         const float* arow, float* crow) {
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = arow[k];
    if (av == 0.0f) continue;
    kt.axpy_i8(av, w.quantized.data() + k * w.out, crow, RowPrefixLen(w, k));
  }
}

/// Int4 row sweep: nibble decode + per-group dequant fused into the sweep
/// (the scale varies along k, so it cannot wait for the epilogue), fp32
/// accumulation, same prefix skip as dense. Row k's scale row is the
/// group-major slice group_scales[(k / kInt4GroupSize) * out ..].
inline void Int4RowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                         const float* arow, float* crow) {
  const int64_t row_bytes = (w.out + 1) / 2;
  for (int64_t k = 0; k < w.in; ++k) {
    const float av = arow[k];
    if (av == 0.0f) continue;
    const uint8_t* nrow = w.nibbles.data() + k * row_bytes;
    const float* gs = w.group_scales.data() + (k / kInt4GroupSize) * w.out;
    kt.axpy_i4(av, nrow, gs, crow, RowPrefixLen(w, k));
  }
}

/// Packed-space row accumulation for every non-dense-identity layout.
inline void PackedRowAccum(const simd::KernelTable& kt, const PackedWeights& w,
                           const float* arow, float* crow) {
  switch (w.backend) {
    case WeightBackend::kDenseF32:
      DenseRowAccum(kt, w, arow, crow);
      break;
    case WeightBackend::kCsrF32:
      CsrRowAccum(kt, w, arow, crow);
      break;
    case WeightBackend::kInt8:
      Int8RowAccum(kt, w, arow, crow);
      break;
    case WeightBackend::kInt4:
      Int4RowAccum(kt, w, arow, crow);
      break;
  }
}

/// Fused bias + activation epilogue over [B, O] rows in place (identity
/// layout); the expressions match RawBiasAct / MatMulBiasAct's epilogue
/// exactly so the CSR path stays bitwise-equal to dense. `scales` (int8
/// only) folds the per-channel dequantization into the same pass:
/// y = act(acc * scale + bias).
void BiasActEpilogue(float* c, int64_t b, int64_t o, const float* bias, const float* scales,
                     Activation act, bool parallel) {
  if (scales == nullptr) {
    RawBiasAct(c, bias, b, o, act, parallel);
    return;
  }
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          float* crow = c + r * o;
#pragma omp simd
          for (int64_t j = 0; j < o; ++j) crow[j] = crow[j] * scales[j] + bias[j];
          switch (act) {
            case Activation::kNone:
              break;
            case Activation::kRelu:
#pragma omp simd
              for (int64_t j = 0; j < o; ++j) crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
              break;
            case Activation::kSigmoid:
              for (int64_t j = 0; j < o; ++j) crow[j] = 1.0f / (1.0f + std::exp(-crow[j]));
              break;
            case Activation::kTanh:
              for (int64_t j = 0; j < o; ++j) crow[j] = std::tanh(crow[j]);
              break;
          }
        }
      },
      parallel, /*grain=*/8);
}

/// Gather for one row of a permuted pack: pure data movement from packed
/// positions back to ORIGINAL column order (dst[j] = acc[unperm[j]]).
/// Scale/bias/activation are NOT applied here — the caller runs the same
/// shared epilogue as the identity layout afterwards, so there is exactly
/// one bias+activation implementation in the tree and the permuted path is
/// bitwise-equal to the identity path by construction.
inline void GatherRow(const PackedWeights& w, const float* acc, float* dst) {
  if (!w.unperm16.empty()) {
    const uint16_t* unperm = w.unperm16.data();
    for (int64_t j = 0; j < w.out; ++j) dst[j] = acc[unperm[j]];
  } else {
    const int32_t* unperm = w.unperm32.data();
    for (int64_t j = 0; j < w.out; ++j) dst[j] = acc[unperm[j]];
  }
}

}  // namespace

const char* WeightBackendName(WeightBackend backend) {
  switch (backend) {
    case WeightBackend::kDenseF32: return "dense";
    case WeightBackend::kCsrF32: return "csr";
    case WeightBackend::kInt8: return "int8";
    case WeightBackend::kInt4: return "int4";
  }
  return "unknown";
}

bool WeightBackendFromTag(uint32_t tag, WeightBackend* out) {
  switch (static_cast<WeightBackend>(tag)) {
    case WeightBackend::kDenseF32:
    case WeightBackend::kCsrF32:
    case WeightBackend::kInt8:
    case WeightBackend::kInt4:
      *out = static_cast<WeightBackend>(tag);
      return true;
  }
  return false;
}

bool ParseWeightBackend(const std::string& name, WeightBackend* out) {
  for (uint32_t tag = 0; tag <= static_cast<uint32_t>(WeightBackend::kInt4); ++tag) {
    WeightBackend b;
    if (WeightBackendFromTag(tag, &b) && name == WeightBackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

uint64_t PackedWeights::bytes() const {
  uint64_t total = (unperm16.size() + row_len16.size()) * sizeof(uint16_t) +
                   (unperm32.size() + row_len32.size()) * sizeof(int32_t);
  switch (backend) {
    case WeightBackend::kDenseF32:
      total += static_cast<uint64_t>(in) * static_cast<uint64_t>(out) * sizeof(float);
      break;
    case WeightBackend::kCsrF32:
      total += (row_ptr.size() + val_ptr.size()) * sizeof(int32_t) +
               (run_start16.size() + run_len16.size()) * sizeof(uint16_t) +
               (run_start32.size() + run_len32.size()) * sizeof(int32_t) +
               values.size() * sizeof(float);
      break;
    case WeightBackend::kInt8:
      total += quantized.size() * sizeof(int8_t) + scales.size() * sizeof(float);
      break;
    case WeightBackend::kInt4:
      total += nibbles.size() * sizeof(uint8_t) + group_scales.size() * sizeof(float);
      break;
  }
  return total;
}

int64_t PackedWeights::nnz() const {
  if (backend == WeightBackend::kCsrF32) return static_cast<int64_t>(values.size());
  return in * out;
}

std::vector<int32_t> DegreeSortPermutation(const Tensor& w) {
  DUET_CHECK_EQ(w.ndim(), 2);
  const int64_t in = w.dim(0), out = w.dim(1);
  const float* wp = w.data();
  std::vector<int64_t> count(static_cast<size_t>(out), 0);
  for (int64_t k = 0; k < in; ++k) {
    const float* row = wp + k * out;
    for (int64_t j = 0; j < out; ++j) count[static_cast<size_t>(j)] += row[j] != 0.0f;
  }
  std::vector<int32_t> perm(static_cast<size_t>(out));
  std::iota(perm.begin(), perm.end(), 0);
  // Descending nonzero count == descending MADE out-degree (hidden rule
  // out_deg >= in_deg admits more rows at higher degree; strict rule is
  // monotone the same way), so every row's allowed columns become a prefix.
  // Stable: equal-degree columns keep their original relative order.
  std::stable_sort(perm.begin(), perm.end(), [&](int32_t a, int32_t b) {
    return count[static_cast<size_t>(a)] > count[static_cast<size_t>(b)];
  });
  bool identity = true;
  for (int64_t j = 0; j < out; ++j) identity &= perm[static_cast<size_t>(j)] == j;
  if (identity) return {};
  return perm;
}

uint64_t PackWeightsCalls() { return g_pack_calls.load(std::memory_order_relaxed); }

std::shared_ptr<const PackedWeights> PackWeights(const Tensor& w, WeightBackend backend,
                                                 const std::vector<int32_t>* perm) {
  DUET_CHECK_EQ(w.ndim(), 2);
  g_pack_calls.fetch_add(1, std::memory_order_relaxed);
  // Fault point: repacking runs lazily on the first forward under a new
  // backend/version — a failure here surfaces mid-estimate and must degrade
  // that dispatch, not take the process down.
  serve::FaultInjector::MaybeThrow(serve::FaultPoint::kPackWeights,
                                   "injected weight-pack failure");
  auto packed = std::make_shared<PackedWeights>();
  packed->backend = backend;
  packed->in = w.dim(0);
  packed->out = w.dim(1);
  const int64_t in = packed->in, out = packed->out;
  const float* wp = w.data();
  const bool narrow = out <= 65535;

  if (perm != nullptr && perm->empty()) perm = nullptr;  // identity shortcut
  // Permuted view accessor: packed column p holds original column perm[p].
  auto at = [&](int64_t k, int64_t p) -> float {
    const int64_t j = perm ? (*perm)[static_cast<size_t>(p)] : p;
    return wp[k * out + j];
  };
  if (perm != nullptr) {
    DUET_CHECK_EQ(static_cast<int64_t>(perm->size()), out);
    if (narrow) {
      packed->unperm16.assign(static_cast<size_t>(out), 0);
      for (int64_t p = 0; p < out; ++p) {
        packed->unperm16[static_cast<size_t>((*perm)[static_cast<size_t>(p)])] =
            static_cast<uint16_t>(p);
      }
    } else {
      packed->unperm32.assign(static_cast<size_t>(out), 0);
      for (int64_t p = 0; p < out; ++p) {
        packed->unperm32[static_cast<size_t>((*perm)[static_cast<size_t>(p)])] =
            static_cast<int32_t>(p);
      }
    }
    if (backend != WeightBackend::kCsrF32) {
      // Per-row nonzero prefix length: the row sweeps stop here. (CSR rows
      // carry their own run bounds instead.)
      if (narrow) packed->row_len16.reserve(static_cast<size_t>(in));
      else packed->row_len32.reserve(static_cast<size_t>(in));
      for (int64_t k = 0; k < in; ++k) {
        int64_t len = out;
        while (len > 0 && at(k, len - 1) == 0.0f) --len;
        if (narrow) packed->row_len16.push_back(static_cast<uint16_t>(len));
        else packed->row_len32.push_back(static_cast<int32_t>(len));
      }
    }
  }

  switch (backend) {
    case WeightBackend::kDenseF32:
      if (perm == nullptr) {
        // Shares the input handle: the caller hands over an immutable,
        // non-pooled materialization (layers pass a fresh W o M copy), so no
        // second dense buffer is allocated.
        packed->dense = w;
      } else {
        std::vector<float> pw(static_cast<size_t>(in * out));
        for (int64_t k = 0; k < in; ++k) {
          for (int64_t p = 0; p < out; ++p) pw[static_cast<size_t>(k * out + p)] = at(k, p);
        }
        packed->dense = Tensor::FromVector({in, out}, std::move(pw));
      }
      break;

    case WeightBackend::kCsrF32: {
      packed->row_ptr.reserve(static_cast<size_t>(in) + 1);
      packed->val_ptr.reserve(static_cast<size_t>(in) + 1);
      packed->row_ptr.push_back(0);
      packed->val_ptr.push_back(0);
      for (int64_t k = 0; k < in; ++k) {
        int64_t j = 0;
        while (j < out) {
          // -0.0f == 0.0f, so masked-out entries (w * 0.0f may be -0.0f for
          // negative w) are dropped along with exact zeros.
          if (at(k, j) == 0.0f) {
            ++j;
            continue;
          }
          const int64_t start = j;
          while (j < out && at(k, j) != 0.0f) {
            packed->values.push_back(at(k, j));
            ++j;
          }
          if (narrow) {
            packed->run_start16.push_back(static_cast<uint16_t>(start));
            packed->run_len16.push_back(static_cast<uint16_t>(j - start));
          } else {
            packed->run_start32.push_back(static_cast<int32_t>(start));
            packed->run_len32.push_back(static_cast<int32_t>(j - start));
          }
        }
        packed->row_ptr.push_back(static_cast<int32_t>(
            narrow ? packed->run_start16.size() : packed->run_start32.size()));
        packed->val_ptr.push_back(static_cast<int32_t>(packed->values.size()));
      }
      break;
    }

    case WeightBackend::kInt8: {
      // Scales stay in ORIGINAL column order (the gathering epilogue indexes
      // them by original j); only the quantized payload is permuted.
      packed->scales.assign(static_cast<size_t>(out), 0.0f);
      for (int64_t k = 0; k < in; ++k) {
        const float* row = wp + k * out;
        for (int64_t j = 0; j < out; ++j) {
          packed->scales[static_cast<size_t>(j)] =
              std::max(packed->scales[static_cast<size_t>(j)], std::fabs(row[j]));
        }
      }
      std::vector<float> inv(static_cast<size_t>(out), 0.0f);
      for (int64_t j = 0; j < out; ++j) {
        float& s = packed->scales[static_cast<size_t>(j)];
        s /= 127.0f;  // symmetric: q in [-127, 127], 0.0 maps to q == 0
        if (s > 0.0f) inv[static_cast<size_t>(j)] = 1.0f / s;
      }
      packed->quantized.resize(static_cast<size_t>(in * out));
      for (int64_t k = 0; k < in; ++k) {
        int8_t* qrow = packed->quantized.data() + k * out;
        for (int64_t p = 0; p < out; ++p) {
          const int64_t j = perm ? (*perm)[static_cast<size_t>(p)] : p;
          const float q = std::nearbyint(wp[k * out + j] * inv[static_cast<size_t>(j)]);
          qrow[p] = static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
        }
      }
      break;
    }

    case WeightBackend::kInt4: {
      // Group-of-kInt4GroupSize scales along k, PACKED column order (the
      // sweep consumes them pre-gather): s[g][p] = max_{k in g} |W[k,p]| / 7.
      const int64_t groups = (in + kInt4GroupSize - 1) / kInt4GroupSize;
      packed->group_scales.assign(static_cast<size_t>(groups * out), 0.0f);
      for (int64_t k = 0; k < in; ++k) {
        float* gs = packed->group_scales.data() + (k / kInt4GroupSize) * out;
        for (int64_t p = 0; p < out; ++p) {
          gs[p] = std::max(gs[p], std::fabs(at(k, p)));
        }
      }
      std::vector<float> inv(static_cast<size_t>(groups * out), 0.0f);
      for (int64_t i = 0; i < groups * out; ++i) {
        float& s = packed->group_scales[static_cast<size_t>(i)];
        s /= 7.0f;  // symmetric: q in [-7, 7], 0.0 maps to q == 0
        if (s > 0.0f) inv[static_cast<size_t>(i)] = 1.0f / s;
      }
      const int64_t row_bytes = (out + 1) / 2;
      packed->nibbles.assign(static_cast<size_t>(in * row_bytes), 0);
      for (int64_t k = 0; k < in; ++k) {
        uint8_t* nrow = packed->nibbles.data() + k * row_bytes;
        const float* ginv = inv.data() + (k / kInt4GroupSize) * out;
        for (int64_t p = 0; p < out; ++p) {
          const float q = std::nearbyint(at(k, p) * ginv[static_cast<size_t>(p)]);
          const int32_t qi = static_cast<int32_t>(std::clamp(q, -7.0f, 7.0f));
          nrow[p >> 1] |= static_cast<uint8_t>((qi & 0xF) << ((p & 1) * 4));
        }
      }
      break;
    }
  }
  return packed;
}

void PackedGemv(const PackedWeights& w, const float* x, float* y) {
  PackedRowAccum(simd::Kernels(), w, x, y);
}

void PackedLinearForward(const PackedWeights& w, const float* x, int64_t batch,
                         const float* bias, Activation act, float* out) {
  DUET_CHECK(!NoGradGuard::GradEnabled())
      << "PackedLinearForward is inference-only (no autograd graph)";
  if (w.backend == WeightBackend::kDenseF32 && !w.permuted()) {
    // Identical code path to the unpacked layer (tiled GEMM / zero-skip
    // GEMV + fused epilogue), so dense packing is bitwise-invisible.
    RawMatMulBiasAct(x, w.dense_data(), bias, batch, w.in, w.out, act, out);
    return;
  }
  const bool parallel = PackedParallel(batch, w.in, w.out);
  const simd::KernelTable& kt = simd::Kernels();
  if (!w.permuted()) {
    // Row-parallel sweep: rows are independent and each output element
    // still accumulates k-ascending, so neither the thread count nor the
    // batch size changes any per-row result (the batch-invariance contract
    // holds for every backend).
    std::fill(out, out + batch * w.out, 0.0f);
    ParallelForChunked(
        0, batch,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            PackedRowAccum(kt, w, x + r * w.in, out + r * w.out);
          }
        },
        parallel, /*grain=*/8);
    BiasActEpilogue(out, batch, w.out, bias,
                    w.backend == WeightBackend::kInt8 ? w.scales.data() : nullptr, act,
                    parallel);
    return;
  }
  // Permuted pack: accumulate each row into a per-thread packed-space
  // scratch (CSR rows are single runs, dense/int8/int4 rows stop at their
  // nonzero prefix), gather back into the original column order, then run
  // the SAME shared epilogue as the identity layout over the gathered rows.
  // Per output element the k-accumulation order is unchanged and the
  // epilogue is literally the same code, so exact backends stay
  // bitwise-equal to the identity layout.
  ParallelForChunked(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        thread_local std::vector<float> acc;
        if (static_cast<int64_t>(acc.size()) < w.out) {
          acc.resize(static_cast<size_t>(w.out));
        }
        for (int64_t r = lo; r < hi; ++r) {
          std::fill(acc.begin(), acc.begin() + w.out, 0.0f);
          PackedRowAccum(kt, w, x + r * w.in, acc.data());
          GatherRow(w, acc.data(), out + r * w.out);
        }
      },
      parallel, /*grain=*/8);
  BiasActEpilogue(out, batch, w.out, bias,
                  w.backend == WeightBackend::kInt8 ? w.scales.data() : nullptr, act,
                  parallel);
}

Tensor PackedMatMulBiasAct(const Tensor& a, const PackedWeights& w, const Tensor& bias,
                           Activation act) {
  DUET_CHECK(!NoGradGuard::GradEnabled())
      << "PackedMatMulBiasAct is inference-only (no autograd graph)";
  DUET_CHECK_EQ(a.ndim(), 2);
  DUET_CHECK_EQ(a.dim(1), w.in);
  DUET_CHECK_EQ(bias.ndim(), 1);
  DUET_CHECK_EQ(bias.dim(0), w.out);
  const int64_t b = a.dim(0);
  Tensor out = Tensor::Zeros({b, w.out});
  PackedLinearForward(w, a.data(), b, bias.data(), act, out.data());
  return out;
}

}  // namespace duet::tensor
