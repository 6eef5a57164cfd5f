// Tiled-GEMM correctness: the register-blocked MatMul / MatMulBiasAct
// kernels must match the scalar triple-loop reference bitwise in the
// forward and dW (dX to rounding) on ragged and zero-heavy shapes, dX must
// follow its documented four-lane order, zero terms must be bitwise on
// every operand view (row-major, transposed, lane-strided), the fused
// masked layer must equal the composed ops bitwise, and its mask-aware
// GEMMs the full sums, the block cross-entropy must equal the log-softmax
// and NLL it replaced bit for bit, NoGradScope must
// be bitwise transparent, ops that skip their output's zero fill must ignore
// recycled contents, and the tensor arena must reach a zero-allocation
// steady state for inference and for training steps.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace duet::tensor {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng& rng, bool requires_grad) {
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.UniformFloat() * 2.0f - 1.0f;
  }
  return t;
}

/// Like RandomTensor, but about `zero_share` of the entries are exact zeros,
/// in runs long enough to empty whole 4-row quads of the micro-kernel.
Tensor SparseTensor(std::vector<int64_t> shape, Rng& rng, double zero_share) {
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); i += 4) {
    const bool zero_run = rng.Bernoulli(zero_share);
    for (int64_t j = i; j < std::min(i + 4, t.numel()); ++j) {
      t.data()[j] = zero_run ? 0.0f : rng.UniformFloat() * 2.0f - 1.0f;
    }
  }
  return t;
}

/// Asserts a and b hold the same bit patterns elementwise.
void ExpectBitwiseEqual(const std::vector<float>& a, const std::vector<float>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t x = 0, y = 0;
    std::memcpy(&x, &a[i], sizeof(x));
    std::memcpy(&y, &b[i], sizeof(y));
    ASSERT_EQ(x, y) << what << " at index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Asserts |a - b| <= tol * max(1, |b|) elementwise.
void ExpectAllClose(const std::vector<float>& a, const std::vector<float>& b, float tol,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(b[i]));
    ASSERT_NEAR(a[i], b[i], tol * scale) << what << " at index " << i;
  }
}

/// Guard restoring the kernel selection on scope exit.
struct ScalarKernelGuard {
  explicit ScalarKernelGuard(bool use) { SetUseScalarKernels(use); }
  ~ScalarKernelGuard() { SetUseScalarKernels(false); }
};

constexpr int64_t kShapes[] = {1, 3, 17, 64, 129};
// Batch sizes: 300 > the 256-deep k panel, so dW (where the batch is the
// reduction axis) also crosses a panel boundary.
constexpr int64_t kBatches[] = {1, 3, 17, 64, 129, 300};

TEST(TiledGemm, ForwardAndBackwardMatchScalarReferenceOnRaggedShapes) {
  Rng rng(11);
  for (const double zero_share : {0.0, 0.7}) {
    for (int64_t b : kBatches) {
      for (int64_t k : kShapes) {
        for (int64_t o : kShapes) {
          const Tensor a0 = SparseTensor({b, k}, rng, zero_share);
          const Tensor w0 = RandomTensor({k, o}, rng, false);
          // Loss weights with zeros make the output gradient zero-heavy too.
          const Tensor r0 = SparseTensor({b, o}, rng, zero_share);

          auto run = [&](bool scalar) {
            ScalarKernelGuard guard(scalar);
            Tensor a = a0.Clone();
            Tensor w = w0.Clone();
            a.impl()->requires_grad = true;
            w.impl()->requires_grad = true;
            Tensor out = MatMul(a, w);
            SumAll(Mul(out, r0)).Backward();
            return std::make_tuple(out.value_vector(), a.grad_vector(), w.grad_vector());
          };
          const auto [out_t, ga_t, gw_t] = run(false);
          const auto [out_s, ga_s, gw_s] = run(true);
          // Forward and dW: both kernels add k- (resp. m-) ascending and skip
          // only exact-zero products, so they agree bit for bit.
          ExpectBitwiseEqual(out_t, out_s, "forward");
          ExpectBitwiseEqual(gw_t, gw_s, "dW");
          // dX: the tiled selection sums each dot in four interleaved lanes
          // (see DxFollowsTheFourLaneOrder), the scalar reference sums it
          // sequentially, so they agree only to rounding.
          ExpectAllClose(ga_t, ga_s, 1e-5f, "dA");
        }
      }
    }
  }
}

TEST(TiledGemm, DxFollowsTheFourLaneOrder) {
  // dX[m,n] = dot(G_m, W_n): lane j sums the terms k = j, j+4, ... below
  // L4 = L & ~3, lane 0 then adds the tail, and the lanes combine as
  // ((l0 + l1) + l2) + l3. Training's bitwise reproducibility rests on
  // this order, so it is pinned here against a plain loop (this file is
  // compiled with -ffp-contract=off, like the kernels).
  Rng rng(13);
  for (const double zero_share : {0.0, 0.6}) {
    for (int64_t b : {1, 5, 70}) {
      for (int64_t k : {1, 9, 64}) {
        for (int64_t l : {1, 3, 4, 7, 130}) {
          Tensor a = RandomTensor({b, k}, rng, true);
          const Tensor w = RandomTensor({k, l}, rng, false);
          const Tensor r = SparseTensor({b, l}, rng, zero_share);
          SumAll(Mul(MatMul(a, w), r)).Backward();
          const int64_t l4 = l & ~int64_t{3};
          for (int64_t m = 0; m < b; ++m) {
            for (int64_t n = 0; n < k; ++n) {
              float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
              for (int64_t i = 0; i < l4; ++i) {
                lane[i % 4] += r.data()[m * l + i] * w.data()[n * l + i];
              }
              for (int64_t i = l4; i < l; ++i) {
                lane[0] += r.data()[m * l + i] * w.data()[n * l + i];
              }
              const float want = ((lane[0] + lane[1]) + lane[2]) + lane[3];
              ExpectBitwiseEqual({a.grad_vector()[static_cast<size_t>(m * k + n)]}, {want},
                                 "dX");
            }
          }
        }
      }
    }
  }
}

/// [rows, cols] values in 4-row quads (quad_rows) or 4-column quads
/// (!quad_rows). At each position along the other axis a quad is either all
/// zero or "on", and quad q is on at exactly kOnShares[q % 6] / 64 of any 64
/// consecutive positions: none, sparse, half, mostly, up to fully on.
/// Entries of an on quad are random, about a fifth of them exact zeros, so
/// partly-zero quads occur too.
Tensor QuadSparse(int64_t rows, int64_t cols, bool quad_rows, Rng& rng) {
  constexpr int64_t kOnShares[] = {0, 8, 32, 44, 52, 64};
  Tensor t = Tensor::Zeros({rows, cols});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t q = quad_rows ? r / 4 : c / 4;
      const int64_t pos = quad_rows ? c : r;
      const bool on = (pos * 37 + q * 13) % 64 < kOnShares[q % 6];
      if (on && !rng.Bernoulli(0.2)) t.data()[r * cols + c] = rng.UniformFloat() * 2.0f - 1.0f;
    }
  }
  return t;
}

TEST(TiledGemm, ZeroTermsAreBitwiseOnEveryOperandView) {
  // The micro-kernel multiplies every zero of A while the scalar reference
  // skips them; with finite operands the two differ only by exact-zero
  // products, so every view must match its reference bit for bit: the
  // forward (A row-major, quads of batch rows) and dW (A read transposed,
  // quads of input features, k = batch) against the scalar reference, and
  // dX (the output gradient read with k-stride 4 per lane, plus lane 0's
  // tail) against the plain four-lane loop. Shapes are ragged in M % 4 and
  // N % 16, cross the 256-deep k panel on both the forward's and dW's
  // reduction axis, and give dX every L % 4.
  struct Shape {
    int64_t b, k, o;
  };
  const Shape shapes[] = {{31, 300, 37}, {300, 31, 18}, {8, 64, 16}, {261, 257, 39}};
  Rng rng(17);
  for (const Shape& s : shapes) {
    for (const bool quad_rows : {true, false}) {
      const Tensor a0 = QuadSparse(s.b, s.k, quad_rows, rng);
      const Tensor w0 = RandomTensor({s.k, s.o}, rng, false);
      const Tensor r = QuadSparse(s.b, s.o, /*quad_rows=*/true, rng);
      auto run = [&](bool scalar) {
        ScalarKernelGuard guard(scalar);
        Tensor a = a0.Clone();
        Tensor w = w0.Clone();
        a.impl()->requires_grad = true;
        w.impl()->requires_grad = true;
        Tensor out = MatMul(a, w);
        SumAll(Mul(out, r)).Backward();
        return std::make_tuple(out.value_vector(), a.grad_vector(), w.grad_vector());
      };
      const auto [out_t, ga_t, gw_t] = run(false);
      const auto [out_s, ga_s, gw_s] = run(true);
      ExpectBitwiseEqual(out_t, out_s, "forward");
      ExpectBitwiseEqual(gw_t, gw_s, "dW");
      const int64_t l = s.o, l4 = l & ~int64_t{3};
      std::vector<float> dx(static_cast<size_t>(s.b * s.k));
      for (int64_t m = 0; m < s.b; ++m) {
        for (int64_t n = 0; n < s.k; ++n) {
          float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
          const float* g = r.data() + m * l;
          const float* wn = w0.data() + n * l;
          for (int64_t i = 0; i < l4; ++i) lane[i % 4] += g[i] * wn[i];
          for (int64_t i = l4; i < l; ++i) lane[0] += g[i] * wn[i];
          dx[static_cast<size_t>(m * s.k + n)] = ((lane[0] + lane[1]) + lane[2]) + lane[3];
        }
      }
      ExpectBitwiseEqual(ga_t, dx, "dX");
    }
  }
}

TEST(TiledGemm, FusedBiasActMatchesComposedOps) {
  Rng rng(23);
  const Activation acts[] = {Activation::kNone, Activation::kRelu, Activation::kSigmoid,
                             Activation::kTanh};
  for (Activation act : acts) {
    for (int64_t b : {1, 5, 64}) {
      for (int64_t o : {3, 17, 129}) {
        const int64_t k = 33;
        const Tensor a0 = RandomTensor({b, k}, rng, false);
        const Tensor w0 = RandomTensor({k, o}, rng, false);
        const Tensor bias0 = RandomTensor({o}, rng, false);

        auto run = [&](bool fused) {
          Tensor a = a0.Clone();
          Tensor w = w0.Clone();
          Tensor bias = bias0.Clone();
          a.impl()->requires_grad = true;
          w.impl()->requires_grad = true;
          bias.impl()->requires_grad = true;
          Tensor out;
          if (fused) {
            out = MatMulBiasAct(a, w, bias, act);
          } else {
            out = AddBias(MatMul(a, w), bias);
            switch (act) {
              case Activation::kNone: break;
              case Activation::kRelu: out = Relu(out); break;
              case Activation::kSigmoid: out = Sigmoid(out); break;
              case Activation::kTanh: out = Tanh(out); break;
            }
          }
          SumAll(out).Backward();
          return std::make_tuple(out.value_vector(), a.grad_vector(), w.grad_vector(),
                                 bias.grad_vector());
        };
        const auto [out_f, ga_f, gw_f, gb_f] = run(true);
        const auto [out_c, ga_c, gw_c, gb_c] = run(false);
        ExpectAllClose(out_f, out_c, 1e-5f, "fused forward");
        ExpectAllClose(ga_f, ga_c, 1e-5f, "fused dA");
        ExpectAllClose(gw_f, gw_c, 1e-5f, "fused dW");
        ExpectAllClose(gb_f, gb_c, 1e-5f, "fused db");
      }
    }
  }
}

TEST(FusedMaskedLayer, BitwiseEqualToComposedOps) {
  // MaskedLinear::Forward (one fused node) against MatMulBiasAct over a
  // Mul(w, mask) node built from public ops, on the same parameters.
  Rng rng(29);
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees({3, 5, 4});
  const std::vector<int32_t> hid_deg = nn::MadeHiddenDegrees(24, 3);
  const int64_t in = static_cast<int64_t>(in_deg.size());
  const int64_t out = static_cast<int64_t>(hid_deg.size());
  const nn::MaskedLinear layer(in, out, nn::BuildMadeMask(in_deg, hid_deg, false), rng);
  const Activation acts[] = {Activation::kNone, Activation::kRelu, Activation::kSigmoid,
                             Activation::kTanh};
  for (Activation act : acts) {
    for (int64_t b : {1, 7, 64}) {
      const Tensor x0 = SparseTensor({b, in}, rng, 0.5);
      const Tensor r = RandomTensor({b, out}, rng, false);
      auto run = [&](bool fused) {
        Tensor x = x0.Clone();
        x.impl()->requires_grad = true;
        const Tensor y =
            fused ? layer.Forward(x, act)
                  : MatMulBiasAct(x, Mul(layer.weight(), layer.mask()), layer.bias(), act);
        SumAll(Mul(y, r)).Backward();
        return std::make_tuple(y.value_vector(), x.grad_vector(),
                               layer.weight().grad_vector(), layer.bias().grad_vector());
      };
      const auto [y_f, gx_f, gw_f, gb_f] = run(true);
      EXPECT_TRUE(layer.mask().grad_vector().empty()) << "the mask takes no gradient";
      const auto [y_c, gx_c, gw_c, gb_c] = run(false);
      ExpectBitwiseEqual(y_f, y_c, "output");
      ExpectBitwiseEqual(gx_f, gx_c, "dX");
      ExpectBitwiseEqual(gw_f, gw_c, "dW");
      ExpectBitwiseEqual(gb_f, gb_c, "db");
    }
  }
}

/// A [rows, cols] 0/1 mask with about one entry in 20 on: sparse enough
/// that a 16-column tile of one row is often all off.
Tensor RandomMask(int64_t rows, int64_t cols, Rng& rng) {
  Tensor t = Tensor::Zeros({rows, cols});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.Bernoulli(0.05) ? 1.0f : 0.0f;
  return t;
}

TEST(MaskAwareLayer, ForwardDxDwAreBitwiseTheFullSums) {
  // The mask-aware layer walks per-tile live lists over degree-sorted
  // columns and leaves the mask's structural zeros out of all three GEMMs.
  // Each kept term is added in its original order, so the forward, dW and
  // db must equal the scalar reference kernels over a Mul(w, mask) node bit
  // for bit, and dX the plain four-lane loop over W o M. Masks come from
  // BuildMadeMask: input blocks into hidden units (the >= rule), hidden
  // into hidden, hidden into output blocks (the strict rule) and a
  // one-column MADE's two masks (all on, all off); a random mask has no
  // MADE structure. `in` and `out` are not multiples of 16, the forward's K
  // (in) and dX's K (out) exceed the 256-deep panel in one case each, dW's
  // K (the batch) in M = 1024, and dX's L = out covers every L % 4.
  struct Case {
    const char* name;
    Tensor mask;
    Activation act;
  };
  using nn::BuildMadeMask;
  using nn::MadeHiddenDegrees;
  using nn::MadeInputDegrees;
  using nn::MadeOutputDegrees;
  Rng mask_rng(43);
  const Case cases[] = {
      {"input blocks -> hidden",
       BuildMadeMask(MadeInputDegrees({5, 9, 3, 20}), MadeHiddenDegrees(45, 4), false),
       Activation::kNone},
      {"hidden -> hidden",
       BuildMadeMask(MadeHiddenDegrees(70, 4), MadeHiddenDegrees(46, 4), false),
       Activation::kRelu},
      {"hidden -> output blocks",
       BuildMadeMask(MadeHiddenDegrees(45, 4), MadeOutputDegrees({120, 150, 33}), true),
       Activation::kNone},
      {"wide input blocks -> hidden",
       BuildMadeMask(MadeInputDegrees({100, 150, 50}), MadeHiddenDegrees(36, 3), false),
       Activation::kRelu},
      {"one column, input -> hidden",
       BuildMadeMask(MadeInputDegrees({6}), MadeHiddenDegrees(20, 1), false), Activation::kRelu},
      {"one column, hidden -> output",
       BuildMadeMask(MadeHiddenDegrees(20, 1), MadeOutputDegrees({6}), true), Activation::kNone},
      {"random mask", RandomMask(41, 53, mask_rng), Activation::kRelu},
  };
  Rng rng(37);
  for (const Case& c : cases) {
    const int64_t in = c.mask.dim(0), out = c.mask.dim(1);
    const nn::MaskedLinear layer(in, out, c.mask, rng);
    for (const int64_t m : {1, 3, 5, 96, 1024}) {
      SCOPED_TRACE(std::string(c.name) + ", M = " + std::to_string(m));
      const Tensor x0 = SparseTensor({m, in}, rng, 0.4);
      const Tensor r = SparseTensor({m, out}, rng, 0.3);
      auto run = [&](bool reference) {
        ScalarKernelGuard guard(reference);
        Tensor x = x0.Clone();
        x.impl()->requires_grad = true;
        const Tensor y =
            reference ? MatMulBiasAct(x, Mul(layer.weight(), layer.mask()), layer.bias(), c.act)
                      : layer.Forward(x, c.act);
        SumAll(Mul(y, r)).Backward();
        return std::make_tuple(y.value_vector(), x.grad_vector(), layer.weight().grad_vector(),
                               layer.bias().grad_vector());
      };
      const auto [y_t, gx_t, gw_t, gb_t] = run(false);
      const auto [y_s, gx_s, gw_s, gb_s] = run(true);
      ExpectBitwiseEqual(y_t, y_s, "forward");
      ExpectBitwiseEqual(gw_t, gw_s, "dW");
      ExpectBitwiseEqual(gb_t, gb_s, "db");
      // dX against the four-lane loop over W o M and the pre-activation
      // gradient.
      const float* w = layer.weight().data();
      const float* mk = c.mask.data();
      const int64_t l4 = out & ~int64_t{3};
      std::vector<float> dx(static_cast<size_t>(m * in));
      for (int64_t row = 0; row < m; ++row) {
        std::vector<float> g(static_cast<size_t>(out));
        for (int64_t o = 0; o < out; ++o) {
          const float gv = r.data()[row * out + o];
          g[static_cast<size_t>(o)] =
              c.act == Activation::kRelu ? (y_t[static_cast<size_t>(row * out + o)] > 0.0f ? gv : 0.0f)
                                         : gv;
        }
        for (int64_t k = 0; k < in; ++k) {
          float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
          for (int64_t o = 0; o < out; ++o) {
            const float term = g[static_cast<size_t>(o)] * (w[k * out + o] * mk[k * out + o]);
            lane[o < l4 ? o % 4 : 0] += term;
          }
          dx[static_cast<size_t>(row * in + k)] = ((lane[0] + lane[1]) + lane[2]) + lane[3];
        }
      }
      ExpectBitwiseEqual(gx_t, dx, "dX");
    }
  }
}

TEST(MaskAwareLayer, LayoutListsExactlyTheLiveTerms) {
  // Each tile's list holds the k where some column of the tile is unmasked,
  // ascending; on a MADE mask the degree sort leaves whole tiles out.
  const Tensor mask = nn::BuildMadeMask(nn::MadeHiddenDegrees(45, 6),
                                        nn::MadeOutputDegrees({20, 40, 9, 30, 17, 11}), true);
  const std::shared_ptr<const MaskLayout> lay = BuildMaskLayout(mask);
  const int64_t in = mask.dim(0), out = mask.dim(1);
  const float* mk = mask.data();
  const auto on = [&](int64_t k, int64_t o) { return mk[k * out + o] != 0.0f; };
  const int64_t tiles = (out + 15) / 16;
  ASSERT_EQ(static_cast<int64_t>(lay->fwd_ptr.size()), tiles + 1);
  for (int64_t t = 0; t < tiles; ++t) {
    std::vector<int32_t> want;
    for (int64_t k = 0; k < in; ++k) {
      bool live = false;
      for (int64_t p = t * 16; p < std::min(out, t * 16 + 16); ++p) live |= on(k, lay->out_perm[p]);
      if (live) want.push_back(static_cast<int32_t>(k));
    }
    const std::vector<int32_t> got(lay->fwd_k.begin() + lay->fwd_ptr[t],
                                   lay->fwd_k.begin() + lay->fwd_ptr[t + 1]);
    EXPECT_EQ(got, want) << "output tile " << t;
  }
  EXPECT_LT(static_cast<int64_t>(lay->fwd_k.size()), tiles * in);
  EXPECT_LT(static_cast<int64_t>(lay->dw_tile.size()), ((in + 3) / 4) * tiles);
  EXPECT_LT(static_cast<int64_t>(lay->dx_k.size()), ((in + 15) / 16) * out);
  for (int64_t o = 0; o < out; ++o) EXPECT_EQ(lay->out_perm[lay->out_pos[o]], o);
}

TEST(CrossEntropy, BitwiseEqualToLogSoftmaxThenNll) {
  // CrossEntropyBlocks against the two ops it replaced, written out here:
  // the per-block log-softmax values, the NLL mean, and the composed
  // backward (NLL's -g/B at the target, then log-softmax's
  // g - exp(logp) * sum(g) per block).
  Rng rng(41);
  const std::vector<BlockSpec> blocks = {{0, 5}, {5, 1}, {6, 17}, {23, 4}};
  const int64_t b = 37, d = 27, n = 4;
  const Tensor x0 = RandomTensor({b, d}, rng, false);
  std::vector<int32_t> targets;
  for (int64_t r = 0; r < b; ++r) {
    for (const BlockSpec& blk : blocks) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(blk.len))));
    }
  }
  const float upstream = 0.75f;
  Tensor x = x0.Clone();
  x.impl()->requires_grad = true;
  const Tensor loss = CrossEntropyBlocks(x, blocks, targets);
  MulScalar(loss, upstream).Backward();

  std::vector<float> logp(static_cast<size_t>(b * d));
  double want_loss = 0.0;
  for (int64_t r = 0; r < b; ++r) {
    for (const BlockSpec& blk : blocks) {
      const float* xs = x0.data() + r * d + blk.offset;
      float mx = xs[0];
      for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, xs[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) sum += std::exp(xs[j] - mx);
      const float lse = mx + std::log(sum);
      for (int64_t j = 0; j < blk.len; ++j) logp[static_cast<size_t>(r * d + blk.offset + j)] = xs[j] - lse;
    }
    for (int64_t k = 0; k < n; ++k) {
      want_loss -= logp[static_cast<size_t>(r * d + blocks[static_cast<size_t>(k)].offset +
                                             targets[static_cast<size_t>(r * n + k)])];
    }
  }
  ExpectBitwiseEqual({loss.item()}, {static_cast<float>(want_loss / static_cast<double>(b))}, "loss");
  const float g = upstream / static_cast<float>(b);
  std::vector<float> gl(static_cast<size_t>(b * d), 0.0f), gx(static_cast<size_t>(b * d), 0.0f);
  for (int64_t r = 0; r < b; ++r) {
    for (int64_t k = 0; k < n; ++k) {
      gl[static_cast<size_t>(r * d + blocks[static_cast<size_t>(k)].offset +
                             targets[static_cast<size_t>(r * n + k)])] -= g;
    }
    for (const BlockSpec& blk : blocks) {
      const size_t o = static_cast<size_t>(r * d + blk.offset);
      float gsum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) gsum += gl[o + j];
      for (int64_t j = 0; j < blk.len; ++j) gx[o + j] += gl[o + j] - std::exp(logp[o + j]) * gsum;
    }
  }
  ExpectBitwiseEqual(x.grad_vector(), gx, "dlogits");
}

TEST(TiledGemm, RowResultsIndependentOfBatchSize) {
  // A query batched with 63 others must see the exact logits it gets alone;
  // this is the invariant the batch-first estimator API relies on.
  Rng rng(31);
  const int64_t k = 57, o = 43;
  const Tensor w = RandomTensor({k, o}, rng, false);
  const Tensor big = RandomTensor({64, k}, rng, false);
  const Tensor out_big = MatMul(big, w);
  for (int64_t r : {int64_t{0}, int64_t{13}, int64_t{63}}) {
    Tensor row = Tensor::Zeros({1, k});
    std::copy(big.data() + r * k, big.data() + (r + 1) * k, row.data());
    const Tensor out_row = MatMul(row, w);
    for (int64_t c = 0; c < o; ++c) {
      ASSERT_EQ(out_row.data()[c], out_big.data()[r * o + c]) << "row " << r << " col " << c;
    }
  }
}

nn::MadeOptions SmallMadeOptions() {
  nn::MadeOptions opt;
  opt.input_widths = {7, 5, 9};
  opt.output_widths = {4, 6, 3};
  opt.hidden_sizes = {32, 32};
  return opt;
}

TEST(NoGradScopeTest, LogitsBitwiseIdenticalToTrackedMode) {
  Rng rng(101);
  const nn::Made made(SmallMadeOptions(), rng);
  const Tensor x = RandomTensor({5, 21}, rng, false);

  const Tensor tracked = made.Forward(x);
  ASSERT_TRUE(NoGradGuard::GradEnabled());

  NoGradScope scope;
  const Tensor inferred = made.Forward(x);
  EXPECT_FALSE(NoGradGuard::GradEnabled());
  ASSERT_EQ(tracked.numel(), inferred.numel());
  for (int64_t i = 0; i < tracked.numel(); ++i) {
    EXPECT_EQ(tracked.data()[i], inferred.data()[i]) << "logit " << i;
  }
  // Inference mode builds no graph: the result has no parents or backward.
  EXPECT_TRUE(inferred.impl()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(inferred.impl()->backward));
}

TEST(NoGradScopeTest, ArenaReachesZeroAllocSteadyState) {
  Rng rng(103);
  const nn::Made made(SmallMadeOptions(), rng);
  const Tensor x = RandomTensor({8, 21}, rng, false);

  TensorArena::Clear();
  {
    NoGradScope scope;
    made.Forward(x);  // warm-up populates the free lists
  }
  TensorArena::ResetStats();
  {
    NoGradScope scope;
    for (int pass = 0; pass < 3; ++pass) made.Forward(x);
  }
  const TensorArena::Stats stats = TensorArena::stats();
  EXPECT_EQ(stats.fresh_allocs, 0u) << "steady-state forward must not heap-allocate";
  EXPECT_GT(stats.reuses, 0u);
  TensorArena::Clear();
}

TEST(TrainingScopeTest, SteadyStateStepAllocatesNothing) {
  // A MADE-shaped training step: masked input and output layers, the
  // per-block cross-entropy loss, backward and an Adam step.
  Rng rng(107);
  const std::vector<int64_t> widths = {4, 6, 3};
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees(widths);
  const std::vector<int32_t> hid_deg = nn::MadeHiddenDegrees(32, 3);
  const int64_t in = static_cast<int64_t>(in_deg.size());
  const nn::MaskedLinear l1(in, 32, nn::BuildMadeMask(in_deg, hid_deg, false), rng);
  const nn::MaskedLinear l2(32, in, nn::BuildMadeMask(hid_deg, in_deg, true), rng);
  std::vector<Tensor> params = l1.parameters();
  for (const Tensor& p : l2.parameters()) params.push_back(p);
  Adam adam(params, 1e-3f);
  const std::vector<BlockSpec> blocks = {{0, 4}, {4, 6}, {10, 3}};
  const int64_t b = 16;
  const Tensor x0 = SparseTensor({b, in}, rng, 0.5);
  std::vector<int32_t> targets;
  for (int64_t i = 0; i < b; ++i) targets.insert(targets.end(), {1, 5, 2});

  TrainingScope scope;
  auto step = [&] {
    Tensor x = Tensor::Zeros({b, in});
    std::copy(x0.data(), x0.data() + x0.numel(), x.data());
    const Tensor logits = l2.Forward(l1.Forward(x, Activation::kRelu));
    CrossEntropyBlocks(logits, blocks, targets).Backward();
    adam.Step();
    // Constants take no gradient buffer, and op results give theirs back
    // once their own backward has run.
    EXPECT_TRUE(logits.grad_vector().empty());
    EXPECT_TRUE(x.grad_vector().empty());
    EXPECT_TRUE(l1.mask().grad_vector().empty());
    EXPECT_TRUE(l2.mask().grad_vector().empty());
  };
  step();  // warm-up populates the free lists
  TensorArena::ResetStats();
  step();
  const TensorArena::Stats stats = TensorArena::stats();
  EXPECT_EQ(stats.fresh_allocs, 0u) << "steady-state training step must not heap-allocate";
  EXPECT_GT(stats.reuses, 0u);
}

TEST(TrainingScopeTest, ArenaIsFreedWhenTheScopeEnds) {
  TensorArena::Clear();
  TensorArena::ResetStats();
  Tensor outlives;
  {
    TrainingScope outer;
    {
      TrainingScope inner;  // nested scopes only count; the outer one frees
      Tensor dies = Tensor::Zeros({1000});
    }
    EXPECT_EQ(TensorArena::stats().returns, 1u) << "buffer recycled inside the scope";
    outlives = Tensor::Zeros({1000});  // reuses the recycled buffer
    EXPECT_EQ(TensorArena::stats().reuses, 1u);
  }
  outlives = Tensor();  // released after the scope: freed, not pooled
  EXPECT_EQ(TensorArena::stats().returns, 1u);
  {
    NoGradScope scope;
    Tensor t = Tensor::Zeros({1000});
  }
  EXPECT_EQ(TensorArena::stats().fresh_allocs, 2u) << "the scope must leave nothing pooled";
  TensorArena::Clear();
}

TEST(TrainingScopeTest, OverwritingOpsIgnoreRecycledContents) {
  // Ops that write every output element take their output buffer without a
  // zero fill. Poison the step arena with NaN-filled buffers of every size
  // they draw, run them again, and compare with a fresh scope bit for bit.
  Rng rng(113);
  const int64_t b = 5, d = 7;
  auto input = [&](float lo, bool grad) {
    Tensor t = RandomTensor({b, d}, rng, grad);
    for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = t.data()[i] + lo;
    return t;
  };
  const Tensor x = input(2.0f, true);  // positive: Log and Div are finite
  const Tensor y = input(2.0f, true);
  const Tensor s = input(0.0f, true);  // signed: Relu and ClampMin clip
  const Tensor bias = RandomTensor({d}, rng, true);
  const Tensor emb = RandomTensor({3, d}, rng, true);
  const Tensor mask = SparseTensor({b, d}, rng, 0.5);
  const std::vector<BlockSpec> blocks = {{0, 3}, {3, 4}};
  const std::vector<int32_t> targets = {0, 1, 2, 3, 1, 0, 2, 2, 0, 3};
  std::vector<float> cond(static_cast<size_t>(b * d));
  for (size_t i = 0; i < cond.size(); ++i) cond[i] = static_cast<float>(i % 3 == 0);

  auto run_ops = [&] {
    std::vector<Tensor> out = {
        AddBias(x, bias), Add(x, y), Sub(x, y), Mul(x, y), Div(x, y), AddScalar(x, 0.5f),
        MulScalar(x, -2.0f), Relu(s), Sigmoid(s), Tanh(s), Exp(s), Log(x), ClampMin(s, 0.1f),
        ConcatCols({x, y}), ConcatRows({x, y}), SliceCols(x, 2, 3),
        EmbeddingLookup(emb, {2, 0, 2, 1}), SoftmaxBlocks(s, blocks), Softmax(s),
        MaskedSumBlocks(x, mask, blocks), SumCols(s), MeanAll(s), SumAll(s), Select(cond, x, y),
        Reshape(x, {d, b}), CrossEntropyBlocks(s, blocks, targets)};
    return out;
  };
  std::vector<std::vector<float>> want;
  {
    TrainingScope fresh;
    for (const Tensor& t : run_ops()) want.push_back(t.value_vector());
  }
  TrainingScope scope;
  for (Tensor& t : run_ops()) std::fill(t.data(), t.data() + t.numel(), std::nanf(""));
  TensorArena::ResetStats();
  const std::vector<Tensor> got = run_ops();
  EXPECT_EQ(TensorArena::stats().fresh_allocs, 0u) << "every output reuses a poisoned buffer";
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("op #" + std::to_string(i));
    ExpectBitwiseEqual(got[i].value_vector(), want[i], "output");
  }
}

TEST(NoGradScopeTest, PooledBuffersDoNotAliasLiveTensors) {
  // Two forwards whose intermediates die at different times must never share
  // a live buffer; values of the first result stay intact after the second.
  NoGradScope scope;
  Tensor a = Tensor::Full({4, 4}, 2.0f);
  Tensor b = Tensor::Full({4, 4}, 3.0f);
  Tensor first = Mul(a, b);  // 6s, kept alive
  const std::vector<float> snapshot = first.value_vector();
  for (int i = 0; i < 4; ++i) {
    Tensor scratch = Mul(a, a);  // dies each iteration, recycles its buffer
    ASSERT_EQ(scratch.data()[0], 4.0f);
  }
  EXPECT_EQ(first.value_vector(), snapshot);
}

}  // namespace
}  // namespace duet::tensor
