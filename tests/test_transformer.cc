// Tests for the attention op vocabulary, LR schedules / gradient clipping,
// and the BlockTransformer backbone — including the autoregressive property
// the Duet estimator relies on (output block i invariant to perturbations of
// input blocks >= i) and a small end-to-end Duet training run on the
// Transformer backbone.
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "nn/transformer.h"
#include "query/evaluator.h"
#include "query/workload.h"
#include "tensor/attention_ops.h"
#include "tensor/ops.h"
#include "tensor/schedule.h"

namespace duet {
namespace {

using duet::testing::ExpectGradMatchesNumeric;
using tensor::Tensor;

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed, bool requires_grad) {
  Rng rng(seed);
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  std::vector<float> data(static_cast<size_t>(n));
  for (float& v : data) v = static_cast<float>(rng.Gaussian());
  return Tensor::FromVector(std::move(shape), std::move(data), requires_grad);
}

// ---------------------------------------------------------------------------
// Attention op forward semantics.
// ---------------------------------------------------------------------------

TEST(LayerNormTest, NormalizesRows) {
  Tensor x = RandomTensor({3, 8}, 7, false);
  Tensor gamma = Tensor::Full({8}, 1.0f);
  Tensor beta = Tensor::Full({8}, 0.0f);
  Tensor y = tensor::LayerNorm(x, gamma, beta);
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t c = 0; c < 8; ++c) mean += y.data()[r * 8 + c];
    mean /= 8.0;
    for (int64_t c = 0; c < 8; ++c) {
      const double d = y.data()[r * 8 + c] - mean;
      var += d * d;
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNormTest, GammaBetaApplied) {
  Tensor x = RandomTensor({2, 4}, 8, false);
  Tensor gamma = Tensor::Full({4}, 2.0f);
  Tensor beta = Tensor::Full({4}, -1.0f);
  Tensor base = tensor::LayerNorm(x, Tensor::Full({4}, 1.0f), Tensor::Full({4}, 0.0f));
  Tensor scaled = tensor::LayerNorm(x, gamma, beta);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(scaled.data()[i], 2.0f * base.data()[i] - 1.0f, 1e-5);
  }
}

TEST(GeluTest, KnownValues) {
  Tensor x = Tensor::FromVector({1, 3}, {-1.0f, 0.0f, 1.0f});
  Tensor y = tensor::Gelu(x);
  EXPECT_NEAR(y.data()[0], -0.1588f, 1e-3);  // gelu(-1)
  EXPECT_FLOAT_EQ(y.data()[1], 0.0f);
  EXPECT_NEAR(y.data()[2], 0.8412f, 1e-3);  // gelu(1)
}

TEST(SplitMergeHeadsTest, RoundTripIsIdentity) {
  const int64_t b = 2, n = 3, h = 2, d = 8;
  Tensor x = RandomTensor({b * n, d}, 9, false);
  Tensor split = tensor::SplitHeads(x, b, n, h);
  EXPECT_EQ(split.dim(0), b * h * n);
  EXPECT_EQ(split.dim(1), d / h);
  Tensor merged = tensor::MergeHeads(split, b, n, h);
  ASSERT_EQ(merged.numel(), x.numel());
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(merged.data()[i], x.data()[i]) << i;
  }
}

TEST(SplitHeadsTest, LayoutMatchesDefinition) {
  const int64_t b = 2, n = 2, h = 2, d = 4, dh = 2;
  // x[row=b*n+t, col] = 100*b + 10*t + col.
  std::vector<float> data;
  for (int64_t bb = 0; bb < b; ++bb)
    for (int64_t t = 0; t < n; ++t)
      for (int64_t c = 0; c < d; ++c)
        data.push_back(static_cast<float>(100 * bb + 10 * t + c));
  Tensor x = Tensor::FromVector({b * n, d}, data);
  Tensor s = tensor::SplitHeads(x, b, n, h);
  // Row of (batch bb, head hh, token t) must hold x[bb*n+t, hh*dh..].
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t hh = 0; hh < h; ++hh) {
      for (int64_t t = 0; t < n; ++t) {
        for (int64_t c = 0; c < dh; ++c) {
          const float expect = static_cast<float>(100 * bb + 10 * t + hh * dh + c);
          EXPECT_FLOAT_EQ(s.data()[((bb * h + hh) * n + t) * dh + c], expect);
        }
      }
    }
  }
}

TEST(BatchedScoresTest, MatchesManualDot) {
  const int64_t b = 2, n = 2, d = 3;
  Tensor q = RandomTensor({b * n, d}, 10, false);
  Tensor k = RandomTensor({b * n, d}, 11, false);
  Tensor s = tensor::BatchedScores(q, k, b, n, 0.5f);
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int64_t c = 0; c < d; ++c) {
          acc += q.data()[(bb * n + i) * d + c] * k.data()[(bb * n + j) * d + c];
        }
        EXPECT_NEAR(s.data()[(bb * n + i) * n + j], 0.5f * acc, 1e-5);
      }
    }
  }
}

TEST(CausalSoftmaxRowsTest, RowsSumToOneWithinPrefix) {
  const int64_t n = 4;
  Tensor s = RandomTensor({2 * n, n}, 12, false);
  Tensor y = tensor::CausalSoftmaxRows(s, n);
  for (int64_t r = 0; r < 2 * n; ++r) {
    const int64_t t = r % n;
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float v = y.data()[r * n + j];
      if (j <= t) {
        EXPECT_GT(v, 0.0f);
        sum += v;
      } else {
        EXPECT_FLOAT_EQ(v, 0.0f) << "future position leaked at row " << r;
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(BatchedAttendTest, IdentityAttentionCopiesValues) {
  const int64_t b = 1, n = 3, d = 2;
  // attn = identity within the batch block.
  std::vector<float> attn(static_cast<size_t>(n * n), 0.0f);
  for (int64_t i = 0; i < n; ++i) attn[static_cast<size_t>(i * n + i)] = 1.0f;
  Tensor a = Tensor::FromVector({b * n, n}, attn);
  Tensor v = RandomTensor({b * n, d}, 13, false);
  Tensor out = tensor::BatchedAttend(a, v, b, n);
  for (int64_t i = 0; i < v.numel(); ++i) EXPECT_FLOAT_EQ(out.data()[i], v.data()[i]);
}

TEST(AddRowBroadcastTest, AddsTableModuloRows) {
  const int64_t n = 2, d = 3;
  Tensor x = Tensor::Full({2 * n, d}, 1.0f);
  Tensor table = Tensor::FromVector({n, d}, {0.f, 1.f, 2.f, 10.f, 11.f, 12.f});
  Tensor y = tensor::AddRowBroadcast(x, table);
  for (int64_t r = 0; r < 2 * n; ++r) {
    for (int64_t c = 0; c < d; ++c) {
      EXPECT_FLOAT_EQ(y.data()[r * d + c], 1.0f + table.data()[(r % n) * d + c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Gradient checks (central differences) for every new op.
// ---------------------------------------------------------------------------

TEST(AttentionGradTest, LayerNormInput) {
  Tensor x = RandomTensor({2, 5}, 20, true);
  Tensor gamma = RandomTensor({5}, 21, false);
  Tensor beta = RandomTensor({5}, 22, false);
  ExpectGradMatchesNumeric(x, [&] {
    return tensor::MeanAll(tensor::Mul(tensor::LayerNorm(x, gamma, beta),
                                       tensor::LayerNorm(x, gamma, beta)));
  });
}

TEST(AttentionGradTest, LayerNormGammaBeta) {
  Tensor x = RandomTensor({3, 4}, 23, false);
  Tensor gamma = RandomTensor({4}, 24, true);
  Tensor beta = RandomTensor({4}, 25, true);
  ExpectGradMatchesNumeric(gamma, [&] {
    return tensor::MeanAll(tensor::Mul(tensor::LayerNorm(x, gamma, beta),
                                       tensor::LayerNorm(x, gamma, beta)));
  });
  ExpectGradMatchesNumeric(beta, [&] {
    return tensor::MeanAll(tensor::Mul(tensor::LayerNorm(x, gamma, beta),
                                       tensor::LayerNorm(x, gamma, beta)));
  });
}

TEST(AttentionGradTest, Gelu) {
  Tensor x = RandomTensor({2, 6}, 26, true);
  ExpectGradMatchesNumeric(
      x, [&] { return tensor::MeanAll(tensor::Mul(tensor::Gelu(x), tensor::Gelu(x))); });
}

TEST(AttentionGradTest, SplitAndMergeHeads) {
  const int64_t b = 2, n = 2, h = 2;
  Tensor x = RandomTensor({b * n, 4}, 27, true);
  ExpectGradMatchesNumeric(x, [&] {
    Tensor s = tensor::SplitHeads(x, b, n, h);
    Tensor m = tensor::MergeHeads(s, b, n, h);
    return tensor::MeanAll(tensor::Mul(m, s.numel() == m.numel() ? m : s));
  });
}

TEST(AttentionGradTest, BatchedScoresBothSides) {
  const int64_t b = 1, n = 3, d = 2;
  Tensor q = RandomTensor({b * n, d}, 28, true);
  Tensor k = RandomTensor({b * n, d}, 29, true);
  auto loss = [&] {
    Tensor s = tensor::BatchedScores(q, k, b, n, 0.7f);
    return tensor::MeanAll(tensor::Mul(s, s));
  };
  ExpectGradMatchesNumeric(q, loss);
  ExpectGradMatchesNumeric(k, loss);
}

TEST(AttentionGradTest, CausalSoftmax) {
  const int64_t n = 3;
  Tensor s = RandomTensor({n, n}, 30, true);
  // Weighted sum so the gradient is not identically zero by symmetry.
  Tensor w = RandomTensor({n, n}, 31, false);
  ExpectGradMatchesNumeric(s, [&] {
    return tensor::MeanAll(tensor::Mul(tensor::CausalSoftmaxRows(s, n), w));
  });
}

TEST(AttentionGradTest, BatchedAttendBothSides) {
  const int64_t b = 1, n = 3, d = 2;
  Tensor a = RandomTensor({b * n, n}, 32, true);
  Tensor v = RandomTensor({b * n, d}, 33, true);
  auto loss = [&] {
    Tensor o = tensor::BatchedAttend(a, v, b, n);
    return tensor::MeanAll(tensor::Mul(o, o));
  };
  ExpectGradMatchesNumeric(a, loss);
  ExpectGradMatchesNumeric(v, loss);
}

TEST(AttentionGradTest, AddRowBroadcastBothSides) {
  const int64_t n = 2, d = 3;
  Tensor x = RandomTensor({2 * n, d}, 34, true);
  Tensor t = RandomTensor({n, d}, 35, true);
  auto loss = [&] {
    Tensor o = tensor::AddRowBroadcast(x, t);
    return tensor::MeanAll(tensor::Mul(o, o));
  };
  ExpectGradMatchesNumeric(x, loss);
  ExpectGradMatchesNumeric(t, loss);
}

// A constant operand of a two-sided op gets no gradient buffer, and the
// tracked operand's gradient is bitwise what it is when both are tracked.
TEST(AttentionGradTest, ConstantOperandTakesNoGradient) {
  const int64_t b = 2, n = 3, d = 4;
  struct Case {
    const char* name;
    std::vector<int64_t> lhs, rhs;
    std::function<Tensor(const Tensor&, const Tensor&)> op;
  };
  const Tensor beta = RandomTensor({d}, 40, false);
  const std::vector<Case> cases = {
      {"BatchedScores", {b * n, d}, {b * n, d},
       [&](const Tensor& q, const Tensor& k) { return tensor::BatchedScores(q, k, b, n, 0.5f); }},
      {"BatchedAttend", {b * n, n}, {b * n, d},
       [&](const Tensor& a, const Tensor& v) { return tensor::BatchedAttend(a, v, b, n); }},
      {"AddRowBroadcast", {b * n, d}, {n, d},
       [](const Tensor& x, const Tensor& t) { return tensor::AddRowBroadcast(x, t); }},
      {"LayerNorm", {b * n, d}, {d},
       [&](const Tensor& x, const Tensor& g) { return tensor::LayerNorm(x, g, beta); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto grads = [&](bool track_lhs, bool track_rhs) {
      Tensor lhs = RandomTensor(c.lhs, 41, track_lhs);
      Tensor rhs = RandomTensor(c.rhs, 42, track_rhs);
      Tensor o = c.op(lhs, rhs);
      tensor::MeanAll(tensor::Mul(o, o)).Backward();
      return std::make_pair(lhs.grad_vector(), rhs.grad_vector());
    };
    const auto both = grads(true, true);
    const auto lhs_only = grads(true, false);
    const auto rhs_only = grads(false, true);
    EXPECT_TRUE(lhs_only.second.empty());
    EXPECT_TRUE(rhs_only.first.empty());
    EXPECT_EQ(lhs_only.first, both.first);
    EXPECT_EQ(rhs_only.second, both.second);
  }
}

// ---------------------------------------------------------------------------
// LR schedules and gradient clipping.
// ---------------------------------------------------------------------------

TEST(ScheduleTest, StepDecayHalvesEveryStepSize) {
  tensor::StepDecayLr s(1.0f, 10, 0.5f);
  EXPECT_FLOAT_EQ(s.LrAt(0), 1.0f);
  EXPECT_FLOAT_EQ(s.LrAt(9), 1.0f);
  EXPECT_FLOAT_EQ(s.LrAt(10), 0.5f);
  EXPECT_FLOAT_EQ(s.LrAt(25), 0.25f);
}

TEST(ScheduleTest, WarmupCosineEndpoints) {
  tensor::WarmupCosineLr s(1.0f, 10, 110, 0.1f);
  EXPECT_NEAR(s.LrAt(0), 0.1f, 1e-5);       // first warmup step: base/warmup
  EXPECT_NEAR(s.LrAt(9), 1.0f, 1e-5);       // warmup complete
  EXPECT_NEAR(s.LrAt(10), 1.0f, 1e-4);      // cosine start
  EXPECT_NEAR(s.LrAt(60), 0.55f, 1e-3);     // halfway: (base+min)/2
  EXPECT_NEAR(s.LrAt(110), 0.1f, 1e-5);     // decayed to min
  EXPECT_NEAR(s.LrAt(1000), 0.1f, 1e-5);    // clamped beyond total
}

TEST(ScheduleTest, CosineMonotoneAfterWarmup) {
  tensor::WarmupCosineLr s(1.0f, 5, 100);
  float prev = s.LrAt(5);
  for (int64_t t = 6; t < 100; ++t) {
    const float cur = s.LrAt(t);
    EXPECT_LE(cur, prev + 1e-6f);
    prev = cur;
  }
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor a = Tensor::Full({4}, 0.0f, true);
  Tensor b = Tensor::Full({2}, 0.0f, true);
  for (int i = 0; i < 4; ++i) a.grad_data()[i] = 3.0f;
  for (int i = 0; i < 2; ++i) b.grad_data()[i] = 4.0f;
  // norm = sqrt(4*9 + 2*16) = sqrt(68)
  const double norm = tensor::ClipGradNorm({a, b}, 1.0);
  EXPECT_NEAR(norm, std::sqrt(68.0), 1e-6);
  double clipped_sq = 0.0;
  for (int i = 0; i < 4; ++i) clipped_sq += a.grad_data()[i] * a.grad_data()[i];
  for (int i = 0; i < 2; ++i) clipped_sq += b.grad_data()[i] * b.grad_data()[i];
  EXPECT_NEAR(std::sqrt(clipped_sq), 1.0, 1e-5);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor a = Tensor::Full({3}, 0.0f, true);
  for (int i = 0; i < 3; ++i) a.grad_data()[i] = 0.1f;
  tensor::ClipGradNorm({a}, 10.0);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a.grad_data()[i], 0.1f);
}

// ---------------------------------------------------------------------------
// BlockTransformer backbone.
// ---------------------------------------------------------------------------

nn::TransformerOptions SmallTransformer(std::vector<int64_t> in_w,
                                        std::vector<int64_t> out_w) {
  nn::TransformerOptions o;
  o.input_widths = std::move(in_w);
  o.output_widths = std::move(out_w);
  o.config.d_model = 16;
  o.config.num_heads = 2;
  o.config.num_layers = 2;
  return o;
}

TEST(BlockTransformerTest, ForwardShape) {
  Rng rng(40);
  nn::BlockTransformer t(SmallTransformer({3, 4, 2}, {5, 6, 7}), rng);
  EXPECT_EQ(t.input_dim(), 9);
  EXPECT_EQ(t.output_dim(), 18);
  EXPECT_EQ(t.num_columns(), 3);
  Tensor x = RandomTensor({4, 9}, 41, false);
  Tensor y = t.Forward(x);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 18);
}

TEST(BlockTransformerTest, AutoregressiveProperty) {
  // Output block i must be invariant to perturbations of input blocks >= i.
  Rng rng(42);
  const std::vector<int64_t> in_w = {3, 2, 4, 2};
  const std::vector<int64_t> out_w = {4, 3, 5, 2};
  nn::BlockTransformer t(SmallTransformer(in_w, out_w), rng);
  Tensor x = RandomTensor({2, t.input_dim()}, 43, false);
  Tensor y0 = t.Forward(x).Clone();

  int64_t in_off = 0;
  for (size_t j = 0; j < in_w.size(); ++j) {
    Tensor xp = x.Clone();
    for (int64_t c = 0; c < in_w[j]; ++c) {
      xp.data()[0 * t.input_dim() + in_off + c] += 5.0f;  // perturb batch row 0
      xp.data()[1 * t.input_dim() + in_off + c] -= 3.0f;  // and row 1
    }
    Tensor y1 = t.Forward(xp);
    int64_t out_off = 0;
    for (size_t i = 0; i < out_w.size(); ++i) {
      bool changed = false;
      for (int64_t r = 0; r < 2; ++r) {
        for (int64_t c = 0; c < out_w[i]; ++c) {
          if (std::abs(y1.data()[r * t.output_dim() + out_off + c] -
                       y0.data()[r * t.output_dim() + out_off + c]) > 1e-6f) {
            changed = true;
          }
        }
      }
      if (i <= j) {
        EXPECT_FALSE(changed) << "output block " << i << " saw input block " << j;
      }
      out_off += out_w[i];
    }
    in_off += in_w[j];
  }
}

TEST(BlockTransformerTest, GradientReachesAllParameters) {
  Rng rng(44);
  nn::BlockTransformer t(SmallTransformer({2, 3}, {3, 4}), rng);
  Tensor x = RandomTensor({3, 5}, 45, true);
  Tensor y = t.Forward(x);
  Tensor loss = tensor::MeanAll(tensor::Mul(y, y));
  loss.Backward();
  int params_with_grad = 0;
  for (const Tensor& p : t.parameters()) {
    bool any = false;
    if (!p.grad_vector().empty()) {
      for (float g : p.grad_vector()) any |= g != 0.0f;
    }
    params_with_grad += any ? 1 : 0;
  }
  // Input projections for the *last* block are absent by construction, and
  // the BOS/pos-path parameters all receive gradient; expect the vast
  // majority of parameters to be touched.
  EXPECT_GT(params_with_grad, static_cast<int>(t.parameters().size() * 3 / 4));
}

TEST(BlockTransformerTest, DeterministicAcrossConstructions) {
  Rng rng1(46), rng2(46);
  nn::BlockTransformer a(SmallTransformer({2, 2}, {3, 3}), rng1);
  nn::BlockTransformer b(SmallTransformer({2, 2}, {3, 3}), rng2);
  Tensor x = RandomTensor({2, 4}, 47, false);
  Tensor ya = a.Forward(x), yb = b.Forward(x);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(DuetTransformerTest, TrainsOnSmallTable) {
  data::SyntheticSpec spec;
  spec.name = "t";
  spec.rows = 600;
  spec.seed = 11;
  spec.columns = {{/*ndv=*/8, /*zipf_s=*/0.7, /*correlation=*/0.3, /*latent=*/0},
                  {/*ndv=*/6, /*zipf_s=*/0.9, /*correlation=*/0.6, /*latent=*/0},
                  {/*ndv=*/10, /*zipf_s=*/0.5, /*correlation=*/0.4, /*latent=*/1}};
  data::Table table = data::GenerateSynthetic(spec);

  core::DuetModelOptions opt;
  opt.backbone = core::DuetBackbone::kTransformer;
  opt.transformer.d_model = 24;
  opt.transformer.num_heads = 2;
  opt.transformer.num_layers = 1;
  core::DuetModel model(table, opt);

  core::TrainOptions train;
  train.epochs = 8;
  train.batch_size = 128;
  train.lambda = 0.0f;
  core::DuetTrainer trainer(model, train);
  auto stats = trainer.Train();
  ASSERT_FALSE(stats.empty());
  EXPECT_LT(stats.back().data_loss, stats.front().data_loss);

  // Sanity: fully-wildcard query estimates selectivity ~1.
  query::Query q;
  EXPECT_NEAR(model.EstimateSelectivity(q), 1.0, 1e-6);

  // Estimates for real queries land in [0, 1] and are deterministic.
  query::WorkloadSpec wspec;
  wspec.num_queries = 20;
  wspec.seed = 5;
  query::WorkloadGenerator gen(table, wspec);
  for (const query::LabeledQuery& lq : gen.Generate()) {
    const double s1 = model.EstimateSelectivity(lq.query);
    const double s2 = model.EstimateSelectivity(lq.query);
    EXPECT_GE(s1, 0.0);
    EXPECT_LE(s1, 1.0);
    EXPECT_DOUBLE_EQ(s1, s2);
  }
}

}  // namespace
}  // namespace duet
