// Unit tests for layers and the MADE/ResMADE mask machinery, including the
// autoregressive-property check (output block i must be numerically
// invariant to any perturbation of input blocks >= i).
#include <cmath>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace duet::nn {
namespace {

using duet::testing::ExpectGradMatchesNumeric;
using tensor::Tensor;

TEST(LinearTest, ShapesAndDeterministicInit) {
  Rng rng1(42), rng2(42);
  Linear a(4, 3, rng1), b(4, 3, rng2);
  for (int64_t i = 0; i < a.weight().numel(); ++i) {
    EXPECT_FLOAT_EQ(a.weight().data()[i], b.weight().data()[i]);
  }
  Tensor x = Tensor::Full({2, 4}, 1.0f);
  Tensor y = a.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
}

TEST(LinearTest, GradientFlowsToParams) {
  Rng rng(1);
  Linear l(3, 2, rng);
  Tensor x = Tensor::Full({4, 3}, 0.5f);
  Tensor loss = tensor::MeanAll(tensor::Mul(l.Forward(x), l.Forward(x)));
  loss.Backward();
  EXPECT_FALSE(l.weight().grad_vector().empty());
  bool any_nonzero = false;
  for (float g : l.weight().grad_vector()) any_nonzero |= g != 0.0f;
  EXPECT_TRUE(any_nonzero);
}

TEST(MaskedLinearTest, MaskZeroesConnections) {
  Rng rng(2);
  // Mask out every connection from input 0.
  Tensor mask = Tensor::Full({2, 3}, 1.0f);
  for (int64_t c = 0; c < 3; ++c) mask.data()[0 * 3 + c] = 0.0f;
  MaskedLinear l(2, 3, mask, rng);
  Tensor x1 = Tensor::FromVector({1, 2}, {0.0f, 1.0f});
  Tensor x2 = Tensor::FromVector({1, 2}, {100.0f, 1.0f});
  Tensor y1 = l.Forward(x1);
  Tensor y2 = l.Forward(x2);
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
}

TEST(MlpTest, ForwardShapeAndGrad) {
  Rng rng(3);
  Mlp mlp({4, 8, 2}, rng);
  Tensor x = Tensor::Full({3, 4}, 0.3f);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(mlp.parameters().size(), 4u);  // 2 layers x (W, b)
}

TEST(EmbeddingTest, RowsComeFromTable) {
  Rng rng(4);
  Embedding emb(5, 3, rng);
  Tensor y = emb.Forward({4, 1});
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y.data()[c], emb.weight().data()[4 * 3 + c]);
  }
}

TEST(LstmTest, StateShapesAndChange) {
  Rng rng(5);
  LstmCell cell(4, 6, rng);
  auto s0 = cell.InitialState(2);
  Tensor x = Tensor::Full({2, 4}, 1.0f);
  auto s1 = cell.Forward(x, s0);
  EXPECT_EQ(s1.h.dim(1), 6);
  bool changed = false;
  for (int64_t i = 0; i < s1.h.numel(); ++i) changed |= s1.h.data()[i] != 0.0f;
  EXPECT_TRUE(changed);
}

TEST(LstmTest, GradientsReachWeights) {
  Rng rng(6);
  LstmCell cell(3, 4, rng);
  auto s = cell.InitialState(2);
  Tensor x = Tensor::Full({2, 3}, 0.7f);
  auto s1 = cell.Forward(x, s);
  auto s2 = cell.Forward(x, s1);
  Tensor loss = tensor::SumAll(s2.h);
  loss.Backward();
  bool any = false;
  for (const auto& p : cell.parameters()) {
    for (float g : p.grad_vector()) any |= g != 0.0f;
  }
  EXPECT_TRUE(any);
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(7);
  Mlp a({3, 5, 2}, rng);
  Mlp b({3, 5, 2}, rng);  // different init (rng advanced)
  std::stringstream buf;
  BinaryWriter w(buf);
  a.Save(w);
  BinaryReader r(buf);
  b.Load(r);
  Tensor x = Tensor::Full({2, 3}, 0.4f);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(ModuleTest, NumParamsAndSize) {
  Rng rng(8);
  Linear l(10, 10, rng);
  EXPECT_EQ(l.NumParams(), 110);
  EXPECT_NEAR(l.SizeMB(), 110.0 * 4 / (1024 * 1024), 1e-9);
}

// ---------- MADE machinery ----------

TEST(MadeMaskTest, DegreeHelpers) {
  auto in = MadeInputDegrees({2, 3, 1});
  ASSERT_EQ(in.size(), 6u);
  EXPECT_EQ(in[0], 1);
  EXPECT_EQ(in[1], 1);
  EXPECT_EQ(in[2], 2);
  EXPECT_EQ(in[5], 3);
  auto hid = MadeHiddenDegrees(5, 3);
  for (int32_t d : hid) {
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 2);
  }
}

TEST(MadeMaskTest, StrictAndNonStrictRules) {
  Tensor loose = BuildMadeMask({1, 2}, {1, 2}, /*strict=*/false);
  // out_deg >= in_deg
  EXPECT_FLOAT_EQ(loose.data()[0 * 2 + 0], 1.0f);  // 1>=1
  EXPECT_FLOAT_EQ(loose.data()[1 * 2 + 0], 0.0f);  // 1>=2 fails
  Tensor strict = BuildMadeMask({1, 2}, {1, 2}, /*strict=*/true);
  EXPECT_FLOAT_EQ(strict.data()[0 * 2 + 0], 0.0f);  // 1>1 fails
  EXPECT_FLOAT_EQ(strict.data()[0 * 2 + 1], 1.0f);  // 2>1
}

struct MadeCase {
  const char* name;
  bool residual;
  std::vector<int64_t> hidden;
};

class MadeAutoregressiveTest : public ::testing::TestWithParam<MadeCase> {};

TEST_P(MadeAutoregressiveTest, OutputBlockIgnoresLaterInputs) {
  Rng rng(9);
  MadeOptions opt;
  opt.input_widths = {3, 5, 2, 4};
  opt.output_widths = {4, 6, 3, 5};
  opt.hidden_sizes = GetParam().hidden;
  opt.residual = GetParam().residual;
  Made made(opt, rng);

  Rng data_rng(10);
  Tensor x = Tensor::Zeros({1, made.input_dim()});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = data_rng.UniformFloat();
  Tensor y0 = made.Forward(x);

  const auto& in_blocks = made.input_blocks();
  const auto& out_blocks = made.output_blocks();
  for (int target = 0; target < made.num_columns(); ++target) {
    // Perturb all input blocks >= target; outputs < ... block `target` must
    // depend only on blocks < target, so it must not move.
    Tensor xp = x.Clone();
    for (int c = target; c < made.num_columns(); ++c) {
      for (int64_t j = 0; j < in_blocks[static_cast<size_t>(c)].len; ++j) {
        xp.data()[in_blocks[static_cast<size_t>(c)].offset + j] += 7.5f;
      }
    }
    Tensor y1 = made.Forward(xp);
    const tensor::BlockSpec& ob = out_blocks[static_cast<size_t>(target)];
    for (int64_t j = 0; j < ob.len; ++j) {
      EXPECT_FLOAT_EQ(y0.data()[ob.offset + j], y1.data()[ob.offset + j])
          << "output block " << target << " element " << j;
    }
  }
}

TEST_P(MadeAutoregressiveTest, EarlierInputsDoAffectLaterOutputs) {
  Rng rng(11);
  MadeOptions opt;
  opt.input_widths = {3, 5, 2, 4};
  opt.output_widths = {4, 6, 3, 5};
  opt.hidden_sizes = GetParam().hidden;
  opt.residual = GetParam().residual;
  Made made(opt, rng);

  Tensor x = Tensor::Zeros({1, made.input_dim()});
  Tensor y0 = made.Forward(x);
  Tensor xp = x.Clone();
  for (int64_t j = 0; j < made.input_blocks()[0].len; ++j) xp.data()[j] = 3.0f;
  Tensor y1 = made.Forward(xp);
  // Expressiveness: the last output block should move when column 0 changes.
  const tensor::BlockSpec& ob = made.output_blocks().back();
  bool moved = false;
  for (int64_t j = 0; j < ob.len; ++j) {
    moved |= y0.data()[ob.offset + j] != y1.data()[ob.offset + j];
  }
  EXPECT_TRUE(moved);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MadeAutoregressiveTest,
    ::testing::Values(MadeCase{"PlainSmall", false, {32, 32}},
                      MadeCase{"PlainHetero", false, {48, 24, 48}},
                      MadeCase{"Res2x32", true, {32, 32}},
                      MadeCase{"Res3x16", true, {16, 16, 16}}),
    [](const ::testing::TestParamInfo<MadeCase>& info) { return info.param.name; });

TEST(MadeTest, SingleColumnIsInputIndependent) {
  Rng rng(12);
  MadeOptions opt;
  opt.input_widths = {4};
  opt.output_widths = {6};
  opt.hidden_sizes = {16};
  Made made(opt, rng);
  Tensor a = Tensor::Full({1, 4}, 0.0f);
  Tensor b = Tensor::Full({1, 4}, 9.0f);
  Tensor ya = made.Forward(a);
  Tensor yb = made.Forward(b);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(MadeTest, LearnsConditionalDistribution) {
  // Two binary columns with P(c1 = c0) = 1: after training, the model must
  // put nearly all block-1 mass on the value matching the block-0 input.
  Rng rng(13);
  MadeOptions opt;
  opt.input_widths = {2, 2};  // one-hot inputs
  opt.output_widths = {2, 2};
  opt.hidden_sizes = {32, 32};
  Made made(opt, rng);
  tensor::Adam adam(made.parameters(), 5e-2f);
  const std::vector<tensor::BlockSpec> blocks = made.output_blocks();

  Rng data_rng(14);
  for (int step = 0; step < 300; ++step) {
    const int64_t bs = 32;
    Tensor x = Tensor::Zeros({bs, 4});
    std::vector<int32_t> targets(static_cast<size_t>(bs * 2));
    for (int64_t r = 0; r < bs; ++r) {
      const int32_t v = static_cast<int32_t>(data_rng.UniformInt(2));
      x.data()[r * 4 + v] = 1.0f;      // block 0 input
      x.data()[r * 4 + 2 + v] = 1.0f;  // block 1 input (ignored by block 1's head)
      targets[static_cast<size_t>(r * 2 + 0)] = v;
      targets[static_cast<size_t>(r * 2 + 1)] = v;
    }
    adam.ZeroGrad();
    Tensor loss = tensor::CrossEntropyBlocks(made.Forward(x), blocks, targets);
    loss.Backward();
    adam.Step();
  }
  // Check P(c1 | c0=1) concentrates on 1.
  Tensor x = Tensor::Zeros({1, 4});
  x.data()[1] = 1.0f;
  Tensor probs = tensor::SoftmaxBlocks(made.Forward(x), blocks);
  EXPECT_GT(probs.data()[2 + 1], 0.9f);
}

}  // namespace
}  // namespace duet::nn
