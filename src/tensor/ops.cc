#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/packed_weights.h"
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
// row length) and dX reads the output gradient, all in place.
// The tiled kernel splits C into kMc x kNc task blocks (2-D parallel split),
// walks K in kKc panels so the B panel and C block stay cache-resident, and
// bottoms out in a branch-free 4x16 register-blocked micro-kernel that walks
// a k list: the identity list here, and a mask's static live-k list in the
// masked training layer below. Ragged edges (M % 4 rows, N % 16 columns) run
// through the same kernel on a zero-padded local copy. For every C element
// the accumulation order is k-ascending regardless of tile placement, so
// results do not depend on the batch size or thread count.
//
// Zero terms. A product with an exact-zero factor is +-0.0f, and adding it
// to a finite accumulator that is never -0.0 (C starts at +0, and IEEE sums
// of finite terms cannot produce -0) leaves it bitwise unchanged. So the
// tiled kernel keeps every zero A term, the GEMV and the scalar reference
// skip them, the masked layer leaves out the terms its mask zeroes, and all
// of them agree bitwise. This is exact only for finite operands: a zero
// times an infinite or NaN element is NaN.

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

inline int64_t RoundUp(int64_t n, int64_t m) { return (n + m - 1) / m * m; }

/// The identity k list 0, 1, ..., kKc - 1: what unmasked GEMMs pass the
/// micro-kernel for one k panel.
const int32_t* IdentityKs() {
  static const std::vector<int32_t> ks = [] {
    std::vector<int32_t> v(static_cast<size_t>(kKc));
    std::iota(v.begin(), v.end(), 0);
    return v;
  }();
  return ks.data();
}

// The 4x16 micro-tile body lives in simd_kernels.inc (compiled per ISA
// tier) and is reached through the runtime dispatch table, as is the fp32
// axpy that the zero-skip GEMV bottoms out in.

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
  const int32_t* ks = IdentityKs();
  const int64_t row_blocks = (M + kMc - 1) / kMc;
  const int64_t col_blocks = (N + kNc - 1) / kNc;
  ParallelForChunked(
      0, row_blocks * col_blocks,
      [&](int64_t lo, int64_t hi) {
        // Ragged edges: the row tail's A rows and the column tail's B
        // columns, zero-padded to a full tile, and the C tile they update.
        float a_pad[kMr * kKc];
        float b_pad[kKc * kNr];
        float c_pad[kMr * kNr];
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t m0 = (t / col_blocks) * kMc, m1 = std::min(M, m0 + kMc);
          const int64_t n0 = (t % col_blocks) * kNc, n1 = std::min(N, n0 + kNc);
          const int64_t n_full = n0 + (n1 - n0) / kNr * kNr;
          for (int64_t k0 = 0; k0 < K; k0 += kKc) {
            const int64_t kc = std::min(kKc, K - k0);
            const float* bp = B + k0 * N;
            if (n_full < n1) {
              for (int64_t k = 0; k < kc; ++k) {
                for (int64_t j = 0; j < kNr; ++j) {
                  b_pad[k * kNr + j] = n_full + j < n1 ? bp[k * N + n_full + j] : 0.0f;
                }
              }
            }
            for (int64_t i = m0; i < m1; i += kMr) {
              const int64_t mr = std::min(kMr, m1 - i);
              const float* ap = A + i * rs + k0 * cs;
              int64_t ars = rs, acs = cs;
              if (mr < kMr) {
                for (int64_t r = 0; r < kMr; ++r) {
                  for (int64_t k = 0; k < kc; ++k) {
                    a_pad[r * kc + k] = r < mr ? ap[r * rs + k * cs] : 0.0f;
                  }
                }
                ap = a_pad;
                ars = kc;
                acs = 1;
              }
              for (int64_t j = n0; j < n1; j += kNr) {
                float* cp = C + i * N + j;
                const bool full_cols = j < n_full;
                if (mr == kMr && full_cols) {
                  kt.micro4x16(ap, ars, acs, ks, kc, bp + j, N, cp, N);
                  continue;
                }
                const int64_t nr = std::min(kNr, n1 - j);
                for (int64_t r = 0; r < kMr; ++r) {
                  for (int64_t c = 0; c < kNr; ++c) {
                    c_pad[r * kNr + c] = r < mr && c < nr ? cp[r * N + c] : 0.0f;
                  }
                }
                kt.micro4x16(ap, ars, acs, ks, kc, full_cols ? bp + j : b_pad,
                             full_cols ? N : kNr, c_pad, kNr);
                for (int64_t r = 0; r < mr; ++r) {
                  for (int64_t c = 0; c < nr; ++c) cp[r * N + c] = c_pad[r * kNr + c];
                }
              }
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

/// Runs fn(m0, m1, t0, t1) for every task block of a tiled [M, 16 * tiles]
/// result: rows [m0, m1) by 16-column tiles [t0, t1), the 2-D split of
/// GemmTiled's task blocks. Row blocks start at multiples of 4.
template <typename Fn>
void ForEachTaskBlock(int64_t M, int64_t tiles, bool parallel, const Fn& fn) {
  constexpr int64_t kTilesPerBlock = kNc / kNr;
  const int64_t row_blocks = (M + kMc - 1) / kMc;
  const int64_t tile_blocks = (tiles + kTilesPerBlock - 1) / kTilesPerBlock;
  ParallelForChunked(
      0, row_blocks * tile_blocks,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t m0 = (t / tile_blocks) * kMc, t0 = (t % tile_blocks) * kTilesPerBlock;
          fn(m0, std::min(M, m0 + kMc), t0, std::min(tiles, t0 + kTilesPerBlock));
        }
      },
      parallel, /*grain=*/1);
}

/// A[M, lda]'s last, ragged row quad as a zero-padded [4, lda] copy (empty
/// when M % 4 == 0), so the micro-kernel can read the row tail as a full quad.
Tensor RowTail(const float* A, int64_t lda, int64_t M) {
  const int64_t m4 = M / kMr * kMr;
  if (m4 == M) return Tensor();
  Tensor tail = Scratch(kMr * lda, /*zeroed=*/true);
  std::copy(A + m4 * lda, A + M * lda, tail.data());
  return tail;
}

/// Zeroes the 4x16 tile at c (row stride ldc): where a masked GEMM tile
/// starts.
inline void ZeroTile(float* c, int64_t ldc) {
  for (int64_t r = 0; r < kMr; ++r) std::fill(c + r * ldc, c + r * ldc + kNr, 0.0f);
}

/// Lane lists of the four-lane dot order over a reduction of length L (see
/// GemmDotAccum): lane j takes k = j, j + 4, ... below L & ~3, and lane 0
/// then takes the tail. Calls visit(j, k) in that order.
template <typename Visit>
void ForEachLaneTerm(int64_t L, const Visit& visit) {
  const int64_t l4 = L / 4 * 4;
  for (int64_t j = 0; j < 4; ++j) {
    for (int64_t k = j; k < l4; k += 4) visit(j, k);
    if (j == 0) {
      for (int64_t k = l4; k < L; ++k) visit(j, k);
    }
  }
}

/// The tiled four-lane dot: for every 16-wide tile t of C's packed columns
/// and lane j, the lane sum over A(m, ks[q]) x panel(q, :) for the tile's
/// list q in [ptr[4t+j], ptr[4t+j+1]), each lane started from zero; then
/// C[m, cols[p]] += ((l0 + l1) + l2) + l3 for packed column p of the tile
/// (cols == nullptr: C column p). A is [M, lda] row-major and `a_tail` its
/// last row quad, zero-padded when M % 4 != 0. Panels hold 16 floats per
/// list entry, zero past column n.
void LaneDotTiles(const float* A, int64_t lda, int64_t M, const float* a_tail,
                  const int32_t* ptr, const int32_t* ks, const float* panels,
                  const int32_t* cols, int64_t n, float* C, bool parallel) {
  const simd::KernelTable& kt = simd::Kernels();
  ForEachTaskBlock(M, (n + kNr - 1) / kNr, parallel, [&](int64_t m0, int64_t m1, int64_t t0,
                                                          int64_t t1) {
    float lane[4][kMr * kNr];
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t nr = std::min(kNr, n - t * kNr);
      for (int64_t i = m0; i < m1; i += kMr) {
        const float* ap = i + kMr <= M ? A + i * lda : a_tail;
        for (int64_t j = 0; j < 4; ++j) {
          const int64_t q0 = ptr[4 * t + j], q1 = ptr[4 * t + j + 1];
          std::fill(lane[j], lane[j] + kMr * kNr, 0.0f);
          kt.micro4x16(ap, lda, 1, ks + q0, q1 - q0, panels + q0 * kNr, kNr, lane[j], kNr);
        }
        for (int64_t r = 0; r < std::min(kMr, M - i); ++r) {
          float* crow = C + (i + r) * n;
          for (int64_t c = 0; c < nr; ++c) {
            const int64_t e = r * kNr + c;
            const int64_t p = t * kNr + c;
            crow[cols != nullptr ? cols[p] : p] +=
                ((lane[0][e] + lane[1][e]) + lane[2][e]) + lane[3][e];
          }
        }
      }
    }
  });
}

/// Fills the 16-wide panels of a tiled list layout: panel row q of tile t
/// holds value(p, q) for the tile's packed columns p < n, zeros past them.
/// ptr[tile * per_tile] .. ptr[(tile + 1) * per_tile] spans the tile's lists.
/// One pass over the weights on the calling thread: cheaper than a pool
/// dispatch at the layer sizes training runs.
template <typename Value>
Tensor PackPanels(const std::vector<int32_t>& ptr, int64_t per_tile, int64_t n,
                  const Value& value) {
  Tensor panels = Scratch(static_cast<int64_t>(ptr.back()) * kNr, /*zeroed=*/false);
  float* pp = panels.data();
  for (int64_t t = 0; t * kNr < n; ++t) {
    const int64_t nr = std::min(kNr, n - t * kNr);
    for (int64_t q = ptr[t * per_tile]; q < ptr[(t + 1) * per_tile]; ++q) {
      float* row = pp + q * kNr;
      for (int64_t c = 0; c < nr; ++c) row[c] = value(t * kNr + c, q);
      for (int64_t c = nr; c < kNr; ++c) row[c] = 0.0f;
    }
  }
  return panels;
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
/// in this order. Each lane is a k-ascending sum over its own k list, so
/// every 16-column tile of C runs four micro-kernel walks, one per lane
/// list, against panels of B^T packed per lane; the order is unchanged and
/// trained parameters stay bitwise what that loop produced. The masked
/// layer runs the same tiles with shorter, mask-live lists.
void GemmDotAccum(const float* A, const float* B, float* C, int64_t M, int64_t N, int64_t L,
                  bool parallel) {
  const int64_t tiles = (N + kNr - 1) / kNr;
  std::vector<int32_t> lane_ks[4];
  ForEachLaneTerm(L, [&](int64_t j, int64_t k) {
    lane_ks[j].push_back(static_cast<int32_t>(k));
  });
  // Every tile walks the same four lists; the panels are per tile.
  std::vector<int32_t> ptr = {0}, ks;
  ks.reserve(static_cast<size_t>(tiles * L));
  for (int64_t t = 0; t < tiles; ++t) {
    for (const std::vector<int32_t>& lk : lane_ks) {
      ks.insert(ks.end(), lk.begin(), lk.end());
      ptr.push_back(static_cast<int32_t>(ks.size()));
    }
  }
  const Tensor panels = PackPanels(ptr, 4, N, [&](int64_t p, int64_t q) {
    return B[p * L + ks[static_cast<size_t>(q)]];
  });
  const Tensor tail = RowTail(A, L, M);
  LaneDotTiles(A, L, M, tail.defined() ? tail.data() : nullptr, ptr.data(), ks.data(),
               panels.data(), nullptr, N, C, parallel);
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

/// One row of the fused bias+activation epilogue: dst[c] = act(x(c) +
/// bp[c]) with x(c) = src[cols[c]] (kGather) or src[c].
template <bool kGather>
void BiasActRow(const float* src, const int32_t* cols, float* dst, const float* bp, int64_t o,
                Activation act) {
  const auto x = [&](int64_t c) { return kGather ? src[cols[c]] : src[c]; };
  switch (act) {
    case Activation::kNone:
#pragma omp simd
      for (int64_t c = 0; c < o; ++c) dst[c] = x(c) + bp[c];
      break;
    case Activation::kRelu:
#pragma omp simd
      for (int64_t c = 0; c < o; ++c) {
        const float v = x(c) + bp[c];
        dst[c] = v > 0.0f ? v : 0.0f;
      }
      break;
    case Activation::kSigmoid:
      for (int64_t c = 0; c < o; ++c) dst[c] = 1.0f / (1.0f + std::exp(-(x(c) + bp[c])));
      break;
    case Activation::kTanh:
      for (int64_t c = 0; c < o; ++c) dst[c] = std::tanh(x(c) + bp[c]);
      break;
  }
}

/// Shared fused bias+activation epilogue over [B, O] rows: dst row r gets
/// act(src[r * lds + col] + bias) with col = cols[c] (the masked layer's
/// packed-to-natural gather) or c (cols == nullptr; then src may be dst, in
/// place). Rows are independent, so it splits across the pool exactly like
/// the GEMM without changing any numerics. MatMulBiasAct, the masked layer
/// and the raw compiled-plan path all run THIS function, so their epilogue
/// math is structurally identical (bitwise-equality across the paths never
/// depends on matching codegen of several copies).
void BiasActRows(const float* src, int64_t lds, const int32_t* cols, float* dst,
                 const float* bp, int64_t b, int64_t o, Activation act, bool parallel) {
  ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          if (cols != nullptr) {
            BiasActRow<true>(src + r * lds, cols, dst + r * o, bp, o, act);
          } else {
            BiasActRow<false>(src + r * lds, nullptr, dst + r * o, bp, o, act);
          }
        }
      },
      parallel, /*grain=*/8);
}

/// dst[c] = the gradient w.r.t. the pre-activation at element cols[c] (or
/// c when cols == nullptr) of the output gradient g and the output y, for
/// c < n. Every activation derivative here is expressible from y, so no
/// pre-activation is retained.
void PreActGradRow(Activation act, const float* g, const float* y, const int32_t* cols,
                   float* dst, int64_t n) {
  const auto run = [&](auto grad) {
    if (cols == nullptr) {
      for (int64_t c = 0; c < n; ++c) dst[c] = grad(g[c], y[c]);
    } else {
      for (int64_t c = 0; c < n; ++c) dst[c] = grad(g[cols[c]], y[cols[c]]);
    }
  };
  switch (act) {
    case Activation::kNone:
      run([](float gv, float) { return gv; });
      break;
    case Activation::kRelu:
      run([](float gv, float yv) { return yv > 0.0f ? gv : 0.0f; });
      break;
    case Activation::kSigmoid:
      run([](float gv, float yv) { return gv * yv * (1.0f - yv); });
      break;
    case Activation::kTanh:
      run([](float gv, float yv) { return gv * (1.0f - yv * yv); });
      break;
  }
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

Tensor MatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& bias, Activation act) {
  DUET_CHECK_EQ(a.ndim(), 2);
  DUET_CHECK_EQ(w.ndim(), 2);
  DUET_CHECK_EQ(bias.ndim(), 1);
  const int64_t b = a.dim(0), i_dim = a.dim(1), o = w.dim(1);
  DUET_CHECK_EQ(i_dim, w.dim(0));
  DUET_CHECK_EQ(o, bias.dim(0));
  const bool track = TrackGrad({&a, &w, &bias});
  Tensor out = MakeResult({b, o}, track, {a.impl(), w.impl(), bias.impl()}, /*zeroed=*/true);
  float* cp = out.data();
  const bool par = GemmParallel(b, i_dim, o);
  GemmAccum(a.data(), i_dim, 1, w.data(), cp, b, i_dim, o, par);
  BiasActRows(cp, o, nullptr, cp, bias.data(), b, o, act, par);
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* wi = w.impl().get();
    TensorImpl* bi = bias.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [ai, wi, bi, oi, b, i_dim, o, act]() {
      const int64_t n = b * o;
      const float* g = oi->grad.data();
      const float* y = oi->value.data();
      Tensor g_pre;
      const float* gp = g;
      if (act != Activation::kNone) {
        g_pre = Scratch(n, /*zeroed=*/false);
        PreActGradRow(act, g, y, nullptr, g_pre.data(), n);
        gp = g_pre.data();
      }
      const bool par = GemmParallel(b, i_dim, o);
      if (float* ga = ai->MutableGrad()) GemmDot(gp, wi->value.data(), ga, b, i_dim, o, par);
      if (float* gw = wi->MutableGrad()) GemmAtBAccum(ai->value.data(), gp, gw, b, i_dim, o, par);
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

/// The mask-aware layer: act(a x (W o M) + bias) with the three GEMMs of
/// MatMulBiasAct on W o M, each walking the layout's static live lists (ops.h
/// MaskLayout). Every element adds the terms of the full sum over W o M in
/// the same order, minus exact-zero products, so the bits are those of
/// MatMulBiasAct(a, Mul(w, mask), bias, act) for finite operands; the dW
/// epilogue adds d * m, the sum the Mul node's backward forms.
///
/// Forward: W o M goes straight into one packed panel per 16-wide tile of
/// degree-sorted outputs, holding only the rows of the tile's live-k list;
/// each tile starts from zero in a packed [M, 16 * tiles] scratch, and the
/// bias+activation epilogue gathers it back to natural column order.
/// Backward: the pre-activation gradient is written in the same packed
/// order (zero-padded to whole tiles and row quads). dX runs the four-lane
/// tiles of GemmDotAccum over degree-sorted input tiles, each lane walking
/// the tile's live outputs. dW computes only the 4x16 tiles (quad of sorted
/// inputs, gathered from the activations, x packed output tile) that hold
/// an unmasked entry, each started from zero,
/// and adds d * m into the gradient inside those tiles only: outside them
/// every entry is masked, where the full epilogue added d * 0 = +-0, which
/// leaves the gradient unchanged. Packed rows carry one spare tile, so rows
/// of a power-of-two width do not fall on the same cache sets.
Tensor MaskedMatMulBiasAct(const Tensor& a, const Tensor& w,
                           const std::shared_ptr<const MaskLayout>& layout, const Tensor& bias,
                           Activation act) {
  const MaskLayout& lay = *layout;
  DUET_CHECK_EQ(a.ndim(), 2);
  DUET_CHECK_EQ(bias.ndim(), 1);
  const int64_t b = a.dim(0), i_dim = lay.in, o = lay.out;
  DUET_CHECK_EQ(a.dim(1), i_dim);
  DUET_CHECK(w.ndim() == 2 && w.dim(0) == i_dim && w.dim(1) == o);
  DUET_CHECK_EQ(bias.dim(0), o);
  const bool track = TrackGrad({&a, &w, &bias});
  Tensor out = MakeResult({b, o}, track, {a.impl(), w.impl(), bias.impl()}, /*zeroed=*/false);
  const int64_t o_tiles = (o + kNr - 1) / kNr, o_pad = (o_tiles + 1) * kNr;
  const int64_t b_pad = RoundUp(b, kMr);
  const bool par = GemmParallel(b, i_dim, o);
  {
    const float* wp = w.data();
    const float* mp = lay.mask.data();
    const Tensor panels = PackPanels(lay.fwd_ptr, 1, o, [&](int64_t p, int64_t q) {
      const int64_t e = lay.fwd_k[static_cast<size_t>(q)] * o + lay.out_perm[static_cast<size_t>(p)];
      return wp[e] * mp[e];
    });
    const Tensor tail = RowTail(a.data(), i_dim, b);
    Tensor packed = Scratch(b_pad * o_pad, /*zeroed=*/false);
    float* cp = packed.data();
    const simd::KernelTable& kt = simd::Kernels();
    ForEachTaskBlock(b, o_tiles, par, [&](int64_t m0, int64_t m1, int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const int32_t q0 = lay.fwd_ptr[static_cast<size_t>(t)];
        const int32_t q1 = lay.fwd_ptr[static_cast<size_t>(t) + 1];
        for (int64_t i = m0; i < m1; i += kMr) {
          const float* ap = i + kMr <= b ? a.data() + i * i_dim : tail.data();
          float* c = cp + i * o_pad + t * kNr;
          ZeroTile(c, o_pad);
          kt.micro4x16(ap, i_dim, 1, lay.fwd_k.data() + q0, q1 - q0, panels.data() + q0 * kNr,
                       kNr, c, o_pad);
        }
      }
    });
    BiasActRows(cp, o_pad, lay.out_pos.data(), out.data(), bias.data(), b, o, act, par);
  }
  if (track) {
    TensorImpl* ai = a.impl().get(); TensorImpl* wi = w.impl().get();
    TensorImpl* bi = bias.impl().get(); TensorImpl* oi = out.impl().get();
    out.impl()->backward = [ai, wi, bi, oi, layout, b, b_pad, i_dim, o, o_tiles, o_pad, act]() {
      if (b == 0) return;  // every gradient term is an empty sum
      const MaskLayout& lay = *layout;
      const int32_t* perm = lay.out_perm.data();
      const float* g = oi->grad.data();
      const float* y = oi->value.data();
      const float* mp = lay.mask.data();
      Tensor g_packed = Scratch(b_pad * o_pad, /*zeroed=*/false);
      float* gp = g_packed.data();
      for (int64_t r = 0; r < b; ++r) {
        PreActGradRow(act, g + r * o, y + r * o, perm, gp + r * o_pad, o);
        std::fill(gp + r * o_pad + o, gp + (r + 1) * o_pad, 0.0f);
      }
      std::fill(gp + b * o_pad, gp + b_pad * o_pad, 0.0f);
      const bool par = GemmParallel(b, i_dim, o);
      if (float* ga = ai->MutableGrad()) {
        const float* wp = wi->value.data();
        const Tensor panels = PackPanels(lay.dx_ptr, 4, i_dim, [&](int64_t p, int64_t q) {
          const int64_t e = lay.in_perm[static_cast<size_t>(p)] * o +
                            perm[lay.dx_k[static_cast<size_t>(q)]];
          return wp[e] * mp[e];
        });
        LaneDotTiles(gp, o_pad, b, gp + b / kMr * kMr * o_pad, lay.dx_ptr.data(),
                     lay.dx_k.data(), panels.data(), lay.in_perm.data(), i_dim, ga, par);
      }
      if (float* gw = wi->MutableGrad()) {
        const float* av = ai->value.data();
        const int32_t* in_perm = lay.in_perm.data();
        // Live tiles accumulate in packed order across the k panels, then
        // go into the gradient.
        Tensor d_packed = Scratch(RoundUp(i_dim, kMr) * o_pad, /*zeroed=*/false);
        float* d = d_packed.data();
        const simd::KernelTable& kt = simd::Kernels();
        const int32_t* ks = IdentityKs();
        ForEachTaskBlock(i_dim, o_tiles, par, [&](int64_t i0, int64_t i1, int64_t t0, int64_t t1) {
          // The quad's live tiles in [t0, t1), as [begin, end).
          const auto live = [&](int64_t q) {
            const int32_t* end = lay.dw_tile.data() + lay.dw_ptr[static_cast<size_t>(q) + 1];
            const int32_t* begin = std::lower_bound(
                lay.dw_tile.data() + lay.dw_ptr[static_cast<size_t>(q)], end, t0);
            return std::make_pair(begin, std::lower_bound(begin, end, t1));
          };
          float a_quad[kKc * kMr];  // sorted input quad q's activations, [k][4]
          for (int64_t k0 = 0; k0 < b; k0 += kKc) {
            const int64_t kc = std::min(kKc, b - k0);
            for (int64_t q = i0 / kMr; q * kMr < i1; ++q) {
              const auto [begin, end] = live(q);
              if (begin == end) continue;
              const int64_t mr = std::min(kMr, i_dim - q * kMr);
              for (int64_t k = 0; k < kc; ++k) {
                for (int64_t r = 0; r < kMr; ++r) {
                  a_quad[k * kMr + r] = r < mr ? av[(k0 + k) * i_dim + in_perm[q * kMr + r]] : 0.0f;
                }
              }
              for (const int32_t* t = begin; t != end; ++t) {
                float* c = d + q * kMr * o_pad + *t * kNr;
                if (k0 == 0) ZeroTile(c, o_pad);
                kt.micro4x16(a_quad, 1, kMr, ks, kc, gp + k0 * o_pad + *t * kNr, o_pad, c, o_pad);
              }
            }
          }
          for (int64_t q = i0 / kMr; q * kMr < i1; ++q) {
            const auto [begin, end] = live(q);
            for (const int32_t* t = begin; t != end; ++t) {
              const float* c = d + q * kMr * o_pad + *t * kNr;
              const int32_t* cols = perm + *t * kNr;
              for (int64_t r = 0; r < std::min(kMr, i_dim - q * kMr); ++r) {
                const int64_t row = in_perm[q * kMr + r] * o;
                for (int64_t j = 0; j < std::min(kNr, o - *t * kNr); ++j) {
                  gw[row + cols[j]] += c[r * o_pad + j] * mp[row + cols[j]];
                }
              }
            }
          }
        });
      }
      if (float* gb = bi->MutableGrad()) {
        for (int64_t r = 0; r < b; ++r) {
          for (int64_t p = 0; p < o; ++p) gb[perm[p]] += gp[r * o_pad + p];
        }
      }
    };
  }
  return out;
}

std::shared_ptr<const MaskLayout> BuildMaskLayout(const Tensor& mask) {
  DUET_CHECK_EQ(mask.ndim(), 2);
  auto lay = std::make_shared<MaskLayout>();
  const int64_t in = mask.dim(0), out = mask.dim(1);
  lay->in = in;
  lay->out = out;
  lay->mask = mask;
  const float* m = lay->mask.data();
  // The inference packs' ordering rule (DegreeSortPermutation) for the
  // outputs, and for the inputs over the transposed mask; {} is identity.
  const auto order = [](std::vector<int32_t> perm, int64_t n) {
    if (perm.empty()) {
      perm.resize(static_cast<size_t>(n));
      std::iota(perm.begin(), perm.end(), 0);
    }
    return perm;
  };
  lay->out_perm = order(DegreeSortPermutation(lay->mask), out);
  std::vector<float> mt(static_cast<size_t>(in * out));
  for (int64_t k = 0; k < in; ++k) {
    for (int64_t o = 0; o < out; ++o) mt[static_cast<size_t>(o * in + k)] = m[k * out + o];
  }
  lay->in_perm = order(DegreeSortPermutation(Tensor::FromVector({out, in}, std::move(mt))), in);
  lay->out_pos.resize(static_cast<size_t>(out));
  for (int64_t p = 0; p < out; ++p) lay->out_pos[static_cast<size_t>(lay->out_perm[p])] = p;

  // Whether the mask is on anywhere in rows rs[0 .. nr) x columns cs[0 .. nc).
  const auto any_on = [&](const int32_t* rs, int64_t nr, const int32_t* cs, int64_t nc) {
    for (int64_t r = 0; r < nr; ++r) {
      for (int64_t c = 0; c < nc; ++c) {
        if (m[rs[r] * out + cs[c]] != 0.0f) return true;
      }
    }
    return false;
  };
  // Tile t's slice of a packed order: (first index, count).
  const auto tile = [](const std::vector<int32_t>& perm, int64_t t, int64_t width) {
    const int64_t n = static_cast<int64_t>(perm.size());
    return std::make_pair(perm.data() + t * width, std::min(width, n - t * width));
  };
  lay->fwd_ptr = {0};
  for (int64_t t = 0; t * kNr < out; ++t) {
    const auto [cs, nc] = tile(lay->out_perm, t, kNr);
    for (int32_t k = 0; k < in; ++k) {
      if (any_on(&k, 1, cs, nc)) lay->fwd_k.push_back(k);
    }
    lay->fwd_ptr.push_back(static_cast<int32_t>(lay->fwd_k.size()));
  }
  lay->dx_ptr = {0};
  for (int64_t t = 0; t * kNr < in; ++t) {
    const auto [rs, nr] = tile(lay->in_perm, t, kNr);
    int64_t lane = 0;
    ForEachLaneTerm(out, [&](int64_t j, int64_t o) {
      for (; lane < j; ++lane) lay->dx_ptr.push_back(static_cast<int32_t>(lay->dx_k.size()));
      const int32_t o32 = static_cast<int32_t>(o);
      if (any_on(rs, nr, &o32, 1)) lay->dx_k.push_back(lay->out_pos[static_cast<size_t>(o)]);
    });
    for (; lane < 4; ++lane) lay->dx_ptr.push_back(static_cast<int32_t>(lay->dx_k.size()));
  }
  lay->dw_ptr = {0};
  for (int64_t q = 0; q * kMr < in; ++q) {
    const auto [rs, nr] = tile(lay->in_perm, q, kMr);
    for (int64_t t = 0; t * kNr < out; ++t) {
      const auto [cs, nc] = tile(lay->out_perm, t, kNr);
      if (any_on(rs, nr, cs, nc)) lay->dw_tile.push_back(static_cast<int32_t>(t));
    }
    lay->dw_ptr.push_back(static_cast<int32_t>(lay->dw_tile.size()));
  }
  return lay;
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

Tensor Softmax(const Tensor& x) {
  DUET_CHECK_EQ(x.ndim(), 2);
  return SoftmaxBlocks(x, {{0, x.dim(1)}});
}

Tensor CrossEntropyBlocks(const Tensor& logits, const std::vector<BlockSpec>& blocks,
                          const std::vector<int32_t>& targets) {
  DUET_CHECK_EQ(logits.ndim(), 2);
  const int64_t b = logits.dim(0), d = logits.dim(1);
  const int64_t n = static_cast<int64_t>(blocks.size());
  CheckBlocksTile(blocks, d);
  DUET_CHECK_EQ(static_cast<int64_t>(targets.size()), b * n);
  const bool track = TrackGrad({&logits});
  Tensor out = MakeResult({1}, track, {logits.impl()}, /*zeroed=*/false);
  // One log-sum-exp per (row, block); log p[j] = x[j] - lse.
  Tensor lse = Scratch(b * n, /*zeroed=*/false);
  float* lp = lse.data();
  const float* xp = logits.data();
  double loss = 0.0;
  for (int64_t r = 0; r < b; ++r) {
    for (int64_t k = 0; k < n; ++k) {
      const BlockSpec& blk = blocks[static_cast<size_t>(k)];
      const float* xs = xp + r * d + blk.offset;
      float mx = xs[0];
      for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, xs[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) sum += std::exp(xs[j] - mx);
      lp[r * n + k] = mx + std::log(sum);
      const int32_t t = targets[static_cast<size_t>(r * n + k)];
      DUET_CHECK_GE(t, 0);
      DUET_CHECK_LT(t, blk.len);
      loss -= xs[t] - lp[r * n + k];
    }
  }
  out.data()[0] = static_cast<float>(loss / static_cast<double>(b));
  if (track) {
    TensorImpl* xi = logits.impl().get(); TensorImpl* oi = out.impl().get();
    Impl li = lse.impl();
    std::vector<BlockSpec> blks = blocks;
    std::vector<int32_t> tgt = targets;
    out.impl()->backward = [xi, oi, li, blks, tgt, b, d, n]() {
      // The log-prob gradient is -g/B at the target and 0 elsewhere, so its
      // block sum is exactly gt: the softmax term is p[j] * gt.
      const float gt = 0.0f - oi->grad[0] / static_cast<float>(b);
      const float* xv = xi->value.data();
      const float* lv = li->value.data();
      float* gx = xi->MutableGrad();
      for (int64_t r = 0; r < b; ++r) {
        for (int64_t k = 0; k < n; ++k) {
          const BlockSpec& blk = blks[static_cast<size_t>(k)];
          const float* xs = xv + r * d + blk.offset;
          const float l = lv[r * n + k];
          const int32_t t = tgt[static_cast<size_t>(r * n + k)];
          float* gxs = gx + r * d + blk.offset;
          for (int64_t j = 0; j < blk.len; ++j) {
            gxs[j] += (j == t ? gt : 0.0f) - std::exp(xs[j] - l) * gt;
          }
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
  BiasActRows(out, n, nullptr, out, bias, m, n, act, par);
}

void RawBiasAct(float* c, const float* bias, int64_t b, int64_t o, Activation act,
                bool parallel) {
  BiasActRows(c, o, nullptr, c, bias, b, o, act, parallel);
}

}  // namespace duet::tensor
