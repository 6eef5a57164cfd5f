// Tiled-GEMM correctness: the register-blocked MatMul / MatMulBiasAct
// kernels must match the scalar triple-loop reference bitwise in the
// forward and dW (dX to rounding) on ragged and zero-heavy shapes, dX must
// follow its documented four-lane order, the per-panel quad skip must be
// bitwise on every operand view (row-major, transposed, lane-strided), the
// fused masked layer must equal the composed ops bitwise, NoGradScope must
// be bitwise transparent, ops that skip their output's zero fill must ignore
// recycled contents, and the tensor arena must reach a zero-allocation
// steady state for inference and for training steps.
#include <cmath>
#include <cstring>
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
  // per-block log-softmax + NLL loss, backward and an Adam step.
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
    NllLossBlocks(LogSoftmaxBlocks(logits, blocks), blocks, targets).Backward();
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
        Reshape(x, {d, b}), LogSoftmaxBlocks(s, blocks)};
    out.push_back(NllLossBlocks(out.back(), blocks, targets));
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
