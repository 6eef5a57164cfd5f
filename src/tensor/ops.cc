#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/simd_dispatch.h"

namespace duet::tensor {

namespace {

using Impl = std::shared_ptr<TensorImpl>;

bool TrackGrad(std::initializer_list<const Tensor*> inputs) {
  if (!NoGradGuard::GradEnabled()) return false;
  for (const Tensor* t : inputs) {
    if (t->defined() && t->requires_grad()) return true;
  }
  return false;
}

/// An op's output node, or kernel scratch (track false, no parents).
/// `zeroed` is for ops and kernels that accumulate into it; one that writes
/// every element passes false and, inside a TrainingScope or a NoGradScope,
/// gets a recycled arena buffer without the fill.
Tensor MakeResult(std::vector<int64_t> shape, bool track, std::vector<Impl> parents,
                  bool zeroed) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->requires_grad = track;
  const size_t n = static_cast<size_t>(impl->numel());
  if (zeroed) {
    impl->AllocValue(n, 0.0f);
  } else if (!impl->AcquirePooled(n)) {
    impl->value.resize(n);
  }
  if (track) impl->parents = std::move(parents);
  return Tensor(std::move(impl));
}

/// Kernel scratch of n floats; see MakeResult for `zeroed` and pooling.
Tensor Scratch(int64_t n, bool zeroed) { return MakeResult({n}, false, {}, zeroed); }

/// Row count for a [B, D] style tensor (1-D tensors are treated as B=1).
int64_t Rows(const Tensor& t) { return t.ndim() == 1 ? 1 : t.dim(0); }
int64_t Cols(const Tensor& t) { return t.ndim() == 1 ? t.dim(0) : t.dim(1); }

/// The block softmax ops write only inside their blocks, so they may skip
/// the output's zero fill only because the blocks tile each row: ascending,
/// contiguous and covering [0, d).
void CheckBlocksTile(const std::vector<BlockSpec>& blocks, int64_t d) {
  int64_t next = 0;
  for (const BlockSpec& blk : blocks) {
    DUET_CHECK_EQ(blk.offset, next);
    DUET_CHECK_GT(blk.len, 0);
    next += blk.len;
  }
  DUET_CHECK_EQ(next, d);
}

// ----- GEMM kernels --------------------------------------------------------
//
// C += A x B with B:[K,N] and C:[M,N] dense row-major, and A:[M,K] a strided
// view: element (r, k) is A[r * rs + k * cs]. The forward reads A row-major
// (rs = K, cs = 1), dW reads its activations transposed (rs = 1, cs = their
// row length) and dX reads each lane of the output gradient with k-stride 4,
// all in place.
// The tiled kernel splits C into kMc x kNc task blocks (2-D parallel split),
// walks K in kKc panels so the B panel and C block stay cache-resident, and
// bottoms out in a branch-free 4x16 register-blocked micro-kernel. For every
// C element the accumulation order is k-ascending regardless of tile
// placement, so results do not depend on the batch size or thread count.
//
// Zero terms. A product with an exact-zero A element is +-0.0f, and adding
// it to a finite accumulator that is never -0.0 (C starts at +0, and IEEE
// sums of finite terms cannot produce -0) leaves it bitwise unchanged. So
// the tiled kernel keeps every term while the GEMV and the scalar reference
// skip zeros, and all three agree bitwise. This is exact only for finite
// B: a kept zero times an infinite or NaN B element is NaN.

std::atomic<bool> g_use_scalar_kernels{false};

constexpr int64_t kMr = 4;    // micro-kernel rows
constexpr int64_t kNr = 16;   // micro-kernel cols
constexpr int64_t kKc = 256;  // k-panel depth
constexpr int64_t kMc = 64;   // task block rows
constexpr int64_t kNc = 256;  // task block cols

/// Work threshold above which GEMM-shaped loops go to the thread pool.
inline bool GemmParallel(int64_t m, int64_t k, int64_t n) {
  return m * k * n > (1 << 18);
}

// The 4x16 micro-tile body lives in simd_kernels.inc (compiled per ISA
// tier) and is reached through the runtime dispatch table, as is the fp32
// axpy that the ragged-edge tail and the zero-skip GEMV bottom out in.

/// Ragged-edge tile (mr < 4 or nr < 16) over one k panel; same k order.
inline void MicroTail(const simd::KernelTable& kt, const float* a, int64_t rs, int64_t cs,
                      const float* b, int64_t ldb, float* c, int64_t ldc, int64_t mr,
                      int64_t nr, int64_t kc) {
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t k = 0; k < kc; ++k) kt.axpy_f32(a[i * rs + k * cs], b + k * ldb, crow, nr);
  }
}

/// Single-row zero-skip GEMV: C[0,:] += A[0,:] x B, A[0,k] = A[k * cs].
/// Batch-1 serving is weight-traffic-bound, and Duet's row is sparse
/// (one-hot encodings, wildcard zero blocks, ReLU-zeroed hidden
/// activations), so skipping k with A[k] == 0 avoids streaming most of B.
/// The skip is the exact one above, so results are bitwise identical to the
/// tiled path — the batch-size-invariance contract holds.
void GemvRowSparse(const float* A, int64_t cs, const float* B, float* C, int64_t K, int64_t N,
                   bool parallel) {
  const simd::KernelTable& kt = simd::Kernels();
  ParallelForChunked(
      0, N,
      [&](int64_t n0, int64_t n1) {
        for (int64_t k = 0; k < K; ++k) {
          const float av = A[k * cs];
          if (av == 0.0f) continue;
          kt.axpy_f32(av, B + k * N + n0, C + n0, n1 - n0);
        }
      },
      parallel, /*grain=*/512);
}

/// Tiled C += A x B over the strided view of A.
void GemmTiled(const float* A, int64_t rs, int64_t cs, const float* B, float* C, int64_t M,
               int64_t K, int64_t N, bool parallel) {
  if (M == 1) {
    GemvRowSparse(A, cs, B, C, K, N, parallel);
    return;
  }
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t row_blocks = (M + kMc - 1) / kMc;
  const int64_t col_blocks = (N + kNc - 1) / kNc;
  ParallelForChunked(
      0, row_blocks * col_blocks,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t m0 = (t / col_blocks) * kMc, m1 = std::min(M, m0 + kMc);
          const int64_t n0 = (t % col_blocks) * kNc, n1 = std::min(N, n0 + kNc);
          for (int64_t k0 = 0; k0 < K; k0 += kKc) {
            const int64_t kc = std::min(kKc, K - k0);
            const float* bp = B + k0 * N;
            int64_t i = m0;
            for (; i + kMr <= m1; i += kMr) {
              const float* ap = A + i * rs + k0 * cs;
              int64_t j = n0;
              for (; j + kNr <= n1; j += kNr) {
                kt.micro4x16(ap, rs, cs, bp + j, N, C + i * N + j, N, kc);
              }
              if (j < n1) {
                MicroTail(kt, ap, rs, cs, bp + j, N, C + i * N + j, N, kMr, n1 - j, kc);
              }
            }
            if (i < m1) {
              MicroTail(kt, A + i * rs + k0 * cs, rs, cs, bp + n0, N, C + i * N + n0, N, m1 - i,
                        n1 - n0, kc);
            }
          }
        }
      },
      parallel, /*grain=*/1);
}

/// Scalar reference: the original triple loop with the zero-skip.
void GemmScalarRef(const float* A, int64_t rs, int64_t cs, const float* B, float* C, int64_t M,
                   int64_t K, int64_t N, bool parallel) {
  ParallelForChunked(
      0, M,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* arow = A + r * rs;
          float* crow = C + r * N;
          for (int64_t k = 0; k < K; ++k) {
            const float av = arow[k * cs];
            if (av == 0.0f) continue;
            const float* brow = B + k * N;
            for (int64_t c = 0; c < N; ++c) crow[c] += av * brow[c];
          }
        }
      },
      parallel, /*grain=*/8);
}

/// C += A x B for either kernel selection; A(r, k) = A[r * rs + k * cs].
inline void GemmAccum(const float* A, int64_t rs, int64_t cs, const float* B, float* C,
                      int64_t M, int64_t K, int64_t N, bool parallel) {
  if (g_use_scalar_kernels.load(std::memory_order_relaxed)) {
    GemmScalarRef(A, rs, cs, B, C, M, K, N, parallel);
  } else {
    GemmTiled(A, rs, cs, B, C, M, K, N, parallel);
  }
}

/// Dot-form accumulate: C[m,n] += dot(A_m, B_n) over the contiguous last
/// axis; A:[M,L], B:[N,L], C:[M,N]. This is dX += dY x W^T with W:[N,L].
///
/// The reduction order is the one the original `omp simd reduction` dot
/// loop compiled to in the portable x86-64 build with OpenMP (SSE2): four
/// lane sums, lane j adding the terms k = j, j+4, ... below L4 = L & ~3 in
/// ascending order, lane 0 then adding the tail k = L4..L-1, and the lanes
/// combined as ((l0 + l1) + l2) + l3 before the dot is added to C. It is
/// spelled out here rather than left to the vectorizer, so every build sums
/// in this order. Each lane is a k-ascending sum, i.e. a GEMM over that
/// lane's columns: it runs through GemmTiled reading A in place with
/// k-stride 4, against a de-interleaved copy of that lane's rows of B^T, and
/// lane 0's tail is a second stride-1 GEMM into the same lane sum, so the
/// order is unchanged and trained parameters stay bitwise what that loop
/// produced. Each task owns a band of C rows.
void GemmDotAccum(const float* A, const float* B, float* C, int64_t M, int64_t N, int64_t L,
                  bool parallel) {
  constexpr int64_t kLanes = 4;
  constexpr int64_t kRowsPerTask = 32;
  const int64_t body = L / kLanes;  // columns per lane below L4
  const int64_t l4 = body * kLanes;
  Tensor bt_lane[kLanes], sum[kLanes];
  for (int64_t j = 0; j < kLanes; ++j) {
    // Lane j's rows of B^T in summation order: j, j+4, ..., then lane 0's tail.
    const int64_t len = body + (j == 0 ? L - l4 : 0);
    bt_lane[j] = Scratch(len * N, /*zeroed=*/false);
    sum[j] = Scratch(M * N, /*zeroed=*/true);
    float* bp = bt_lane[j].data();
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t i = 0; i < len; ++i) {
        bp[i * N + n] = B[n * L + (i < body ? i * kLanes + j : l4 + (i - body))];
      }
    }
  }
  ParallelForChunked(
      0, (M + kRowsPerTask - 1) / kRowsPerTask,
      [&](int64_t lo, int64_t hi) {
        const int64_t m0 = lo * kRowsPerTask, m1 = std::min(M, hi * kRowsPerTask);
        if (body > 0) {
          for (int64_t j = 0; j < kLanes; ++j) {
            GemmTiled(A + m0 * L + j, L, kLanes, bt_lane[j].data(), sum[j].data() + m0 * N,
                      m1 - m0, body, N, /*parallel=*/false);
          }
        }
        if (l4 < L) {
          GemmTiled(A + m0 * L + l4, L, 1, bt_lane[0].data() + body * N, sum[0].data() + m0 * N,
                    m1 - m0, L - l4, N, /*parallel=*/false);
        }
        const float* p0 = sum[0].data();
        const float* p1 = sum[1].data();
        const float* p2 = sum[2].data();
        const float* p3 = sum[3].data();
        for (int64_t i = m0 * N; i < m1 * N; ++i) C[i] += ((p0[i] + p1[i]) + p2[i]) + p3[i];
      },
      parallel, /*grain=*/1);
}

/// Scalar-reference dX: the original dot loop (no omp simd reduction), used
/// when the scalar flag is set so backward is also a faithful reference.
void GemmDotScalarRef(const float* A, const float* B, float* C, int64_t M, int64_t N,
                      int64_t L, bool parallel) {
  ParallelForChunked(
      0, M,
      [&](int64_t lo, int64_t hi) {
        for (int64_t m = lo; m < hi; ++m) {
          const float* arow = A + m * L;
          float* crow = C + m * N;
          for (int64_t n = 0; n < N; ++n) {
            const float* brow = B + n * L;
            float acc = 0.0f;
            for (int64_t k = 0; k < L; ++k) acc += arow[k] * brow[k];
            crow[n] += acc;
          }
        }
      },
      parallel, /*grain=*/8);
}

inline void GemmDot(const float* A, const float* B, float* C, int64_t M, int64_t N, int64_t L,
                    bool parallel) {
  if (g_use_scalar_kernels.load(std::memory_order_relaxed)) {
    GemmDotScalarRef(A, B, C, M, N, L, parallel);
  } else {
    GemmDotAccum(A, B, C, M, N, L, parallel);
  }
}

/// Weight-gradient accumulate: C[k,n] += sum_m A[m,k] * G[m,n], i.e.
/// C += A^T x G, with A read transposed in place (rs = 1, cs = K). Per
/// output the terms add m-ascending and only exact-zero products are
/// skipped, so the tiled and scalar-reference kernels agree bitwise with
/// each other and with the row loop over m that this replaced.
void GemmAtBAccum(const float* A, const float* G, float* C, int64_t M, int64_t K, int64_t N,
                  bool parallel) {
  GemmAccum(A, /*rs=*/1, /*cs=*/K, G, C, K, M, N, parallel);
}

/// Shared fused bias+activation epilogue over [B, O] rows. One pass adds the
/// bias and applies the activation while the output rows are still
/// cache-hot. Rows are independent, so it splits across the pool exactly
/// like the GEMM without changing any numerics. Both MatMulBiasAct and the
/// raw compiled-plan path run THIS function, so their epilogue math is
/// structurally identical (bitwise-equality across the two paths never
/// depends on matching codegen of two copies).
void BiasActRows(float* cp, const float* bp, int64_t b, int64_t o, Activation act,
                 bool parallel) {
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          float* crow = cp + r * o;
          switch (act) {
            case Activation::kNone:
#pragma omp simd
              for (int64_t c = 0; c < o; ++c) crow[c] += bp[c];
              break;
            case Activation::kRelu:
#pragma omp simd
              for (int64_t c = 0; c < o; ++c) {
                const float v = crow[c] + bp[c];
                crow[c] = v > 0.0f ? v : 0.0f;
              }
              break;
            case Activation::kSigmoid:
              for (int64_t c = 0; c < o; ++c) {
                crow[c] = 1.0f / (1.0f + std::exp(-(crow[c] + bp[c])));
              }
              break;
            case Activation::kTanh:
              for (int64_t c = 0; c < o; ++c) crow[c] = std::tanh(crow[c] + bp[c]);
              break;
          }
        }
      },
      parallel, /*grain=*/8);
}

}  // namespace

void SetUseScalarKernels(bool use) {
  g_use_scalar_kernels.store(use, std::memory_order_relaxed);
}

bool UseScalarKernels() { return g_use_scalar_kernels.load(std::memory_order_relaxed); }

Tensor MatMul(const Tensor& a, const Tensor& w) {
  DUET_CHECK_EQ(a.ndim(), 2);
  DUET_CHECK_EQ(w.ndim(), 2);
  const int64_t b = a.dim(0), i_dim = a.dim(1), o = w.dim(1);
  DUET_CHECK_EQ(i_dim, w.dim(0));
  const bool track = TrackGrad({&a, &w});
  Tensor out = MakeResult({b, o}, track, {a.impl(), w.impl()}, /*zeroed=*/true);
  GemmAccum(a.data(), i_dim, 1, w.data(), out.data(), b, i_dim, o, GemmParallel(b, i_dim, o));
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* wi = w.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [ai, wi, oi, b, i_dim, o]() {
      const float* gout = oi->grad.data();
      const bool par = GemmParallel(b, i_dim, o);
      // dA[r,k] = sum_c gout[r,c] * W[k,c]
      if (float* ga = ai->MutableGrad()) GemmDot(gout, wi->value.data(), ga, b, i_dim, o, par);
      // dW[k,c] = sum_r A[r,k] * gout[r,c]
      if (float* gw = wi->MutableGrad()) GemmAtBAccum(ai->value.data(), gout, gw, b, i_dim, o, par);
    };
  }
  return out;
}

namespace {

/// act(a x w_eff + bias), where w_eff is w itself or, given a mask, W o M
/// written into a scratch buffer. The one implementation behind
/// MatMulBiasAct and MaskedMatMulBiasAct.
Tensor DenseLayer(const Tensor& a, const Tensor& w, const Tensor* mask, const Tensor& bias,
                  Activation act) {
  DUET_CHECK_EQ(a.ndim(), 2);
  DUET_CHECK_EQ(w.ndim(), 2);
  DUET_CHECK_EQ(bias.ndim(), 1);
  const int64_t b = a.dim(0), i_dim = a.dim(1), o = w.dim(1);
  DUET_CHECK_EQ(i_dim, w.dim(0));
  DUET_CHECK_EQ(o, bias.dim(0));
  const bool track = TrackGrad({&a, &w, &bias});
  Tensor out = MakeResult({b, o}, track, {a.impl(), w.impl(), bias.impl()}, /*zeroed=*/true);
  Tensor w_eff = w;
  if (mask != nullptr) {
    DUET_CHECK_EQ(mask->numel(), w.numel());
    const int64_t n = w.numel();
    w_eff = Scratch(n, /*zeroed=*/false);
    const float* wp = w.data();
    const float* mp = mask->data();
    float* ep = w_eff.data();
    for (int64_t i = 0; i < n; ++i) ep[i] = wp[i] * mp[i];
  }
  float* cp = out.data();
  const bool par = GemmParallel(b, i_dim, o);
  GemmAccum(a.data(), i_dim, 1, w_eff.data(), cp, b, i_dim, o, par);
  BiasActRows(cp, bias.data(), b, o, act, par);
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* wi = w.impl().get();
    TensorImpl* bi = bias.impl().get(); TensorImpl* oi = out.impl().get();
    // Neither is a parent, so the closure keeps them alive: the effective
    // weight dA multiplies by, and the mask the dW epilogue applies.
    Impl ei = w_eff.impl();
    Impl mi = mask != nullptr ? mask->impl() : nullptr;
    out.impl()->backward = [ai, wi, bi, oi, ei, mi, b, i_dim, o, act]() {
      const int64_t n = b * o;
      const float* g = oi->grad.data();
      const float* y = oi->value.data();
      // Gradient w.r.t. the pre-activation; every activation derivative here
      // is expressible from the output y, so no pre-activation is retained.
      Tensor g_pre;
      const float* gp = g;
      if (act != Activation::kNone) {
        g_pre = Scratch(n, /*zeroed=*/false);
        float* t = g_pre.data();
        switch (act) {
          case Activation::kRelu:
            for (int64_t i = 0; i < n; ++i) t[i] = y[i] > 0.0f ? g[i] : 0.0f;
            break;
          case Activation::kSigmoid:
            for (int64_t i = 0; i < n; ++i) t[i] = g[i] * y[i] * (1.0f - y[i]);
            break;
          case Activation::kTanh:
            for (int64_t i = 0; i < n; ++i) t[i] = g[i] * (1.0f - y[i] * y[i]);
            break;
          case Activation::kNone:
            break;
        }
        gp = t;
      }
      const bool par = GemmParallel(b, i_dim, o);
      if (float* ga = ai->MutableGrad()) GemmDot(gp, ei->value.data(), ga, b, i_dim, o, par);
      if (float* gw = wi->MutableGrad()) {
        if (mi == nullptr) {
          GemmAtBAccum(ai->value.data(), gp, gw, b, i_dim, o, par);
        } else {
          // Epilogue: A^T x G goes to a zeroed scratch and is added in times
          // the mask — the very sum the composed Mul(w, mask) node's
          // backward forms — so dW is bitwise the composed one and the mask
          // takes no gradient.
          Tensor dw_eff = Scratch(i_dim * o, /*zeroed=*/true);
          float* d = dw_eff.data();
          GemmAtBAccum(ai->value.data(), gp, d, b, i_dim, o, par);
          const float* m = mi->value.data();
          for (int64_t i = 0; i < i_dim * o; ++i) gw[i] += d[i] * m[i];
        }
      }
      if (float* gb = bi->MutableGrad()) {
        for (int64_t r = 0; r < b; ++r) {
          const float* grow = gp + r * o;
          for (int64_t c = 0; c < o; ++c) gb[c] += grow[c];
        }
      }
    };
  }
  return out;
}

}  // namespace

Tensor MatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& bias, Activation act) {
  return DenseLayer(a, w, nullptr, bias, act);
}

Tensor MaskedMatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& mask,
                           const Tensor& bias, Activation act) {
  return DenseLayer(a, w, &mask, bias, act);
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(bias.ndim(), 1);
  const int64_t b = x.dim(0), o = x.dim(1);
  DUET_CHECK_EQ(o, bias.dim(0));
  const bool track = TrackGrad({&x, &bias});
  Tensor out = MakeResult({b, o}, track, {x.impl(), bias.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  const float* bp = bias.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    for (int64_t c = 0; c < o; ++c) op[r * o + c] = xp[r * o + c] + bp[c];
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* bi = bias.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, bi, oi, b, o]() {
      const float* g = oi->grad.data();
      if (float* gx = xi->MutableGrad()) {
        for (int64_t i = 0; i < b * o; ++i) gx[i] += g[i];
      }
      if (float* gb = bi->MutableGrad()) {
        for (int64_t r = 0; r < b; ++r) {
          for (int64_t c = 0; c < o; ++c) gb[c] += g[r * o + c];
        }
      }
    };
  }
  return out;
}

namespace {

template <typename Fwd, typename Bwd>
Tensor BinaryElementwise(const Tensor& a, const Tensor& b, Fwd fwd, Bwd bwd) {
  DUET_CHECK_EQ(a.numel(), b.numel());
  const bool track = TrackGrad({&a, &b});
  Tensor out = MakeResult(a.shape(), track, {a.impl(), b.impl()}, /*zeroed=*/false);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = fwd(ap[i], bp[i]);
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* bi = b.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [ai, bi, oi, n, bwd]() {
      const float* g = oi->grad.data();
      const float* av = ai->value.data();
      const float* bv = bi->value.data();
      float* ga = ai->MutableGrad();
      float* gb = bi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) {
        const auto [da, db] = bwd(av[i], bv[i]);
        if (ga != nullptr) ga[i] += g[i] * da;
        if (gb != nullptr) gb[i] += g[i] * db;
      }
    };
  }
  return out;
}

template <typename Fwd, typename Bwd>
Tensor UnaryElementwise(const Tensor& x, Fwd fwd, Bwd bwd) {
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult(x.shape(), track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  float* op = out.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = fwd(xp[i]);
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, n, bwd]() {
      const float* g = oi->grad.data();
      const float* xv = xi->value.data();
      const float* ov = oi->value.data();
      float* gx = xi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) gx[i] += g[i] * bwd(xv[i], ov[i]);
    };
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(
      a, b, [](float x, float y) { return x + y; },
      [](float, float) { return std::pair<float, float>(1.0f, 1.0f); });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return std::pair<float, float>(1.0f, -1.0f); });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(
      a, b, [](float x, float y) { return x * y; },
      [](float x, float y) { return std::pair<float, float>(y, x); });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(
      a, b, [](float x, float y) { return x / y; },
      [](float x, float y) { return std::pair<float, float>(1.0f / y, -x / (y * y)); });
}

Tensor AddScalar(const Tensor& x, float c) {
  return UnaryElementwise(
      x, [c](float v) { return v + c; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& x, float c) {
  return UnaryElementwise(
      x, [c](float v) { return v * c; }, [c](float, float) { return c; });
}

Tensor Relu(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::exp(v); }, [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::log(v); }, [](float v, float) { return 1.0f / v; });
}

Tensor ClampMin(const Tensor& x, float c) {
  return UnaryElementwise(
      x, [c](float v) { return v > c ? v : c; },
      [c](float v, float) { return v > c ? 1.0f : 0.0f; });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  DUET_CHECK(!parts.empty());
  const int64_t b = Rows(parts[0]);
  int64_t total = 0;
  bool track = false;
  std::vector<Impl> parents;
  for (const Tensor& t : parts) {
    DUET_CHECK_EQ(Rows(t), b);
    total += Cols(t);
    track = track || (NoGradGuard::GradEnabled() && t.requires_grad());
    parents.push_back(t.impl());
  }
  Tensor out = MakeResult({b, total}, track, parents, /*zeroed=*/false);
  float* op = out.data();
  int64_t off = 0;
  for (const Tensor& t : parts) {
    const int64_t w = Cols(t);
    const float* tp = t.data();
    for (int64_t r = 0; r < b; ++r) {
      std::copy(tp + r * w, tp + (r + 1) * w, op + r * total + off);
    }
    off += w;
  }
  if (track) {
    TensorImpl* oi = out.impl().get();
    std::vector<Impl> impls = std::move(parents);
    std::vector<int64_t> widths;
    widths.reserve(impls.size());
    for (const auto& im : impls) {
      widths.push_back(im->shape.size() == 1 ? im->shape[0] : im->shape[1]);
    }
    out.impl()->backward = [oi, impls, widths, b, total]() {
      const float* g = oi->grad.data();
      int64_t off = 0;
      for (size_t k = 0; k < impls.size(); ++k) {
        const int64_t w = widths[k];
        if (float* gp = impls[k]->MutableGrad()) {
          for (int64_t r = 0; r < b; ++r) {
            for (int64_t c = 0; c < w; ++c) gp[r * w + c] += g[r * total + off + c];
          }
        }
        off += w;
      }
    };
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  DUET_CHECK(!parts.empty());
  const int64_t h = Cols(parts[0]);
  int64_t total_rows = 0;
  bool track = false;
  std::vector<Impl> parents;
  for (const Tensor& t : parts) {
    DUET_CHECK_EQ(Cols(t), h);
    total_rows += Rows(t);
    track = track || (NoGradGuard::GradEnabled() && t.requires_grad());
    parents.push_back(t.impl());
  }
  Tensor out = MakeResult({total_rows, h}, track, parents, /*zeroed=*/false);
  float* op = out.data();
  int64_t row = 0;
  for (const Tensor& t : parts) {
    const int64_t r = Rows(t);
    std::copy(t.data(), t.data() + r * h, op + row * h);
    row += r;
  }
  if (track) {
    TensorImpl* oi = out.impl().get();
    std::vector<Impl> impls = std::move(parents);
    out.impl()->backward = [oi, impls, h]() {
      const float* g = oi->grad.data();
      int64_t row = 0;
      for (const auto& im : impls) {
        const int64_t r = im->shape.size() == 1 ? 1 : im->shape[0];
        if (float* gp = im->MutableGrad()) {
          for (int64_t i = 0; i < r * h; ++i) gp[i] += g[row * h + i];
        }
        row += r;
      }
    };
  }
  return out;
}

Tensor SliceCols(const Tensor& x, int64_t start, int64_t len) {
  DUET_CHECK_EQ(x.ndim(), 2);
  const int64_t b = x.dim(0), d = x.dim(1);
  DUET_CHECK_GE(start, 0);
  DUET_CHECK_LE(start + len, d);
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({b, len}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    std::copy(xp + r * d + start, xp + r * d + start + len, op + r * len);
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, b, d, start, len]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (int64_t c = 0; c < len; ++c) gx[r * d + start + c] += g[r * len + c];
      }
    };
  }
  return out;
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int32_t>& idx) {
  DUET_CHECK_EQ(weight.ndim(), 2);
  const int64_t v = weight.dim(0), e = weight.dim(1);
  const int64_t b = static_cast<int64_t>(idx.size());
  const bool track = TrackGrad({&weight});
  Tensor out = MakeResult({b, e}, track, {weight.impl()}, /*zeroed=*/false);
  const float* wp = weight.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    DUET_CHECK_GE(idx[static_cast<size_t>(r)], 0);
    DUET_CHECK_LT(idx[static_cast<size_t>(r)], v);
    std::copy(wp + idx[static_cast<size_t>(r)] * e, wp + (idx[static_cast<size_t>(r)] + 1) * e,
              op + r * e);
  }
  if (track) {
    TensorImpl* wi = weight.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<int32_t> idx_copy = idx;
    out.impl()->backward = [wi, oi, idx_copy, e]() {
      const float* g = oi->grad.data();
      float* gw = wi->MutableGrad();
      for (size_t r = 0; r < idx_copy.size(); ++r) {
        float* dst = gw + static_cast<int64_t>(idx_copy[r]) * e;
        const float* src = g + static_cast<int64_t>(r) * e;
        for (int64_t c = 0; c < e; ++c) dst[c] += src[c];
      }
    };
  }
  return out;
}

Tensor SoftmaxBlocks(const Tensor& x, const std::vector<BlockSpec>& blocks) {
  DUET_CHECK_EQ(x.ndim(), 2);
  const int64_t b = x.dim(0), d = x.dim(1);
  CheckBlocksTile(blocks, d);
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({b, d}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    for (const BlockSpec& blk : blocks) {
      const float* xs = xp + r * d + blk.offset;
      float* os = op + r * d + blk.offset;
      float mx = xs[0];
      for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, xs[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) {
        os[j] = std::exp(xs[j] - mx);
        sum += os[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < blk.len; ++j) os[j] *= inv;
    }
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<BlockSpec> blks = blocks;
    out.impl()->backward = [xi, oi, blks, b, d]() {
      const float* g = oi->grad.data();
      const float* y = oi->value.data();
      float* gx = xi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (const BlockSpec& blk : blks) {
          const float* gs = g + r * d + blk.offset;
          const float* ys = y + r * d + blk.offset;
          float dot = 0.0f;
          for (int64_t j = 0; j < blk.len; ++j) dot += gs[j] * ys[j];
          float* gxs = gx + r * d + blk.offset;
          for (int64_t j = 0; j < blk.len; ++j) gxs[j] += ys[j] * (gs[j] - dot);
        }
      }
    };
  }
  return out;
}

Tensor LogSoftmaxBlocks(const Tensor& x, const std::vector<BlockSpec>& blocks) {
  DUET_CHECK_EQ(x.ndim(), 2);
  const int64_t b = x.dim(0), d = x.dim(1);
  CheckBlocksTile(blocks, d);
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({b, d}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    for (const BlockSpec& blk : blocks) {
      const float* xs = xp + r * d + blk.offset;
      float* os = op + r * d + blk.offset;
      float mx = xs[0];
      for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, xs[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) sum += std::exp(xs[j] - mx);
      const float lse = mx + std::log(sum);
      for (int64_t j = 0; j < blk.len; ++j) os[j] = xs[j] - lse;
    }
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<BlockSpec> blks = blocks;
    out.impl()->backward = [xi, oi, blks, b, d]() {
      const float* g = oi->grad.data();
      const float* ly = oi->value.data();
      float* gx = xi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (const BlockSpec& blk : blks) {
          const float* gs = g + r * d + blk.offset;
          const float* ls = ly + r * d + blk.offset;
          float gsum = 0.0f;
          for (int64_t j = 0; j < blk.len; ++j) gsum += gs[j];
          float* gxs = gx + r * d + blk.offset;
          for (int64_t j = 0; j < blk.len; ++j) gxs[j] += gs[j] - std::exp(ls[j]) * gsum;
        }
      }
    };
  }
  return out;
}

Tensor Softmax(const Tensor& x) {
  DUET_CHECK_EQ(x.ndim(), 2);
  return SoftmaxBlocks(x, {{0, x.dim(1)}});
}

Tensor NllLossBlocks(const Tensor& logp, const std::vector<BlockSpec>& blocks,
                     const std::vector<int32_t>& targets) {
  DUET_CHECK_EQ(logp.ndim(), 2);
  const int64_t b = logp.dim(0), d = logp.dim(1);
  const int64_t n = static_cast<int64_t>(blocks.size());
  DUET_CHECK_EQ(static_cast<int64_t>(targets.size()), b * n);
  const bool track = TrackGrad({&logp});
  Tensor out = MakeResult({1}, track, {logp.impl()}, /*zeroed=*/false);
  const float* lp = logp.data();
  double loss = 0.0;
  for (int64_t r = 0; r < b; ++r) {
    for (int64_t k = 0; k < n; ++k) {
      const int32_t t = targets[static_cast<size_t>(r * n + k)];
      DUET_CHECK_GE(t, 0);
      DUET_CHECK_LT(t, blocks[static_cast<size_t>(k)].len);
      loss -= lp[r * d + blocks[static_cast<size_t>(k)].offset + t];
    }
  }
  out.data()[0] = static_cast<float>(loss / static_cast<double>(b));
  if (track) {
    TensorImpl* li = logp.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<BlockSpec> blks = blocks;
    std::vector<int32_t> tgt = targets;
    out.impl()->backward = [li, oi, blks, tgt, b, d, n]() {
      const float g = oi->grad[0] / static_cast<float>(b);
      float* gl = li->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (int64_t k = 0; k < n; ++k) {
          const int32_t t = tgt[static_cast<size_t>(r * n + k)];
          gl[r * d + blks[static_cast<size_t>(k)].offset + t] -= g;
        }
      }
    };
  }
  return out;
}

Tensor MaskedSumBlocks(const Tensor& p, const Tensor& mask,
                       const std::vector<BlockSpec>& blocks) {
  DUET_CHECK_EQ(p.ndim(), 2);
  DUET_CHECK_EQ(mask.numel(), p.numel());
  const int64_t b = p.dim(0), d = p.dim(1);
  const int64_t n = static_cast<int64_t>(blocks.size());
  const bool track = TrackGrad({&p});
  Tensor out = MakeResult({b, n}, track, {p.impl(), mask.impl()}, /*zeroed=*/false);
  const float* pp = p.data();
  const float* mp = mask.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    for (int64_t k = 0; k < n; ++k) {
      const BlockSpec& blk = blocks[static_cast<size_t>(k)];
      const float* ps = pp + r * d + blk.offset;
      const float* ms = mp + r * d + blk.offset;
      float acc = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) acc += ps[j] * ms[j];
      op[r * n + k] = acc;
    }
  }
  if (track) {
    TensorImpl* pi = p.impl().get(); TensorImpl* mi = mask.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<BlockSpec> blks = blocks;
    out.impl()->backward = [pi, mi, oi, blks, b, d, n]() {
      const float* g = oi->grad.data();
      const float* mp = mi->value.data();
      float* gp = pi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (int64_t k = 0; k < n; ++k) {
          const BlockSpec& blk = blks[static_cast<size_t>(k)];
          const float gv = g[r * n + k];
          const float* ms = mp + r * d + blk.offset;
          float* gs = gp + r * d + blk.offset;
          for (int64_t j = 0; j < blk.len; ++j) gs[j] += gv * ms[j];
        }
      }
    };
  }
  return out;
}

Tensor SumCols(const Tensor& x) {
  DUET_CHECK_EQ(x.ndim(), 2);
  const int64_t b = x.dim(0), n = x.dim(1);
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({b}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t r = 0; r < b; ++r) {
    float acc = 0.0f;
    for (int64_t c = 0; c < n; ++c) acc += xp[r * n + c];
    op[r] = acc;
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, b, n]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (int64_t c = 0; c < n; ++c) gx[r * n + c] += g[r];
      }
    };
  }
  return out;
}

Tensor MeanAll(const Tensor& x) {
  const int64_t n = x.numel();
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({1}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += xp[i];
  out.data()[0] = static_cast<float>(acc / static_cast<double>(n));
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, n]() {
      const float g = oi->grad[0] / static_cast<float>(n);
      float* gx = xi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) gx[i] += g;
    };
  }
  return out;
}

Tensor SumAll(const Tensor& x) {
  const int64_t n = x.numel();
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({1}, track, {x.impl()}, /*zeroed=*/false);
  const float* xp = x.data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += xp[i];
  out.data()[0] = static_cast<float>(acc);
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, n]() {
      const float g = oi->grad[0];
      float* gx = xi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) gx[i] += g;
    };
  }
  return out;
}

Tensor Select(const std::vector<float>& cond, const Tensor& a, const Tensor& b) {
  DUET_CHECK_EQ(a.numel(), b.numel());
  DUET_CHECK_EQ(static_cast<int64_t>(cond.size()), a.numel());
  const bool track = TrackGrad({&a, &b});
  Tensor out = MakeResult(a.shape(), track, {a.impl(), b.impl()}, /*zeroed=*/false);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = cond[static_cast<size_t>(i)] != 0.0f ? ap[i] : bp[i];
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* bi = b.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<float> c = cond;
    out.impl()->backward = [ai, bi, oi, c, n]() {
      const float* g = oi->grad.data();
      float* ga = ai->MutableGrad();
      float* gb = bi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) {
        float* dst = c[static_cast<size_t>(i)] != 0.0f ? ga : gb;
        if (dst != nullptr) dst[i] += g[i];
      }
    };
  }
  return out;
}

Tensor MeanPoolSegments(const Tensor& x, const std::vector<float>& mask, int64_t batch,
                        int64_t set_size) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(0), batch * set_size);
  DUET_CHECK_EQ(static_cast<int64_t>(mask.size()), batch * set_size);
  const int64_t h = x.dim(1);
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult({batch, h}, track, {x.impl()}, /*zeroed=*/true);
  const float* xp = x.data();
  float* op = out.data();
  std::vector<float> counts(static_cast<size_t>(batch), 0.0f);
  for (int64_t bi = 0; bi < batch; ++bi) {
    float cnt = 0.0f;
    for (int64_t s = 0; s < set_size; ++s) cnt += mask[static_cast<size_t>(bi * set_size + s)];
    counts[static_cast<size_t>(bi)] = cnt;
    if (cnt == 0.0f) continue;
    for (int64_t s = 0; s < set_size; ++s) {
      const float m = mask[static_cast<size_t>(bi * set_size + s)];
      if (m == 0.0f) continue;
      const float* row = xp + (bi * set_size + s) * h;
      float* orow = op + bi * h;
      for (int64_t c = 0; c < h; ++c) orow[c] += row[c] * m;
    }
    float* orow = op + bi * h;
    for (int64_t c = 0; c < h; ++c) orow[c] /= cnt;
  }
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    std::vector<float> m = mask;
    std::vector<float> cnts = counts;
    out.impl()->backward = [xi, oi, m, cnts, batch, set_size, h]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t bi = 0; bi < batch; ++bi) {
        const float cnt = cnts[static_cast<size_t>(bi)];
        if (cnt == 0.0f) continue;
        for (int64_t s = 0; s < set_size; ++s) {
          const float mv = m[static_cast<size_t>(bi * set_size + s)];
          if (mv == 0.0f) continue;
          float* grow = gx + (bi * set_size + s) * h;
          const float* gorow = g + bi * h;
          for (int64_t c = 0; c < h; ++c) grow[c] += gorow[c] * mv / cnt;
        }
      }
    };
  }
  return out;
}

Tensor Reshape(const Tensor& x, std::vector<int64_t> shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  DUET_CHECK_EQ(n, x.numel());
  const bool track = TrackGrad({&x});
  Tensor out = MakeResult(std::move(shape), track, {x.impl()}, /*zeroed=*/false);
  std::copy(x.data(), x.data() + n, out.data());
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [xi, oi, n]() {
      const float* g = oi->grad.data();
      float* gx = xi->MutableGrad();
      for (int64_t i = 0; i < n; ++i) gx[i] += g[i];
    };
  }
  return out;
}

Tensor BlockDiagMatMul(const Tensor& x, const Tensor& w, int64_t num_blocks, int64_t in,
                       int64_t out) {
  DUET_CHECK_EQ(x.ndim(), 2);
  DUET_CHECK_EQ(x.dim(1), num_blocks * in);
  DUET_CHECK_EQ(w.numel(), num_blocks * in * out);
  const int64_t b = x.dim(0);
  const bool track = TrackGrad({&x, &w});
  Tensor res = MakeResult({b, num_blocks * out}, track, {x.impl(), w.impl()}, /*zeroed=*/true);
  const float* xp = x.data();
  const float* wp = w.data();
  float* op = res.data();
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          for (int64_t k = 0; k < num_blocks; ++k) {
            const float* xs = xp + r * num_blocks * in + k * in;
            const float* ws = wp + k * in * out;
            float* os = op + r * num_blocks * out + k * out;
            for (int64_t i = 0; i < in; ++i) {
              const float xv = xs[i];
              if (xv == 0.0f) continue;
              const float* wrow = ws + i * out;
              for (int64_t o = 0; o < out; ++o) os[o] += xv * wrow[o];
            }
          }
        }
      },
      b * num_blocks * in * out > (1 << 18), 8);
  if (track) {
    TensorImpl* xi = x.impl().get(); TensorImpl* wi = w.impl().get(); TensorImpl* oi = res.impl().get();
    res.impl()->backward = [xi, wi, oi, b, num_blocks, in, out]() {
      const float* g = oi->grad.data();
      const float* wp = wi->value.data();
      const float* xp = xi->value.data();
      if (float* gx = xi->MutableGrad()) {
        for (int64_t r = 0; r < b; ++r) {
          for (int64_t k = 0; k < num_blocks; ++k) {
            const float* gs = g + r * num_blocks * out + k * out;
            const float* ws = wp + k * in * out;
            float* gxs = gx + r * num_blocks * in + k * in;
            for (int64_t i = 0; i < in; ++i) {
              const float* wrow = ws + i * out;
              float acc = 0.0f;
              for (int64_t o = 0; o < out; ++o) acc += gs[o] * wrow[o];
              gxs[i] += acc;
            }
          }
        }
      }
      if (float* gw = wi->MutableGrad()) {
        for (int64_t r = 0; r < b; ++r) {
          for (int64_t k = 0; k < num_blocks; ++k) {
            const float* xs = xp + r * num_blocks * in + k * in;
            const float* gs = g + r * num_blocks * out + k * out;
            float* gws = gw + k * in * out;
            for (int64_t i = 0; i < in; ++i) {
              const float xv = xs[i];
              if (xv == 0.0f) continue;
              float* gwrow = gws + i * out;
              for (int64_t o = 0; o < out; ++o) gwrow[o] += xv * gs[o];
            }
          }
        }
      }
    };
  }
  return res;
}

void RawMatMulBiasAct(const float* a, const float* w, const float* bias, int64_t m,
                      int64_t k, int64_t n, Activation act, float* out) {
  std::fill(out, out + m * n, 0.0f);
  const bool par = GemmParallel(m, k, n);
  GemmAccum(a, k, 1, w, out, m, k, n, par);
  BiasActRows(out, bias, m, n, act, par);
}

void RawBiasAct(float* c, const float* bias, int64_t b, int64_t o, Activation act,
                bool parallel) {
  BiasActRows(c, bias, b, o, act, parallel);
}

}  // namespace duet::tensor
