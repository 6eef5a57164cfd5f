// Unit tests for the tensor/autograd engine: op forward semantics, numeric
// gradient checks for every differentiable op, optimizer behaviour, and the
// graph machinery (NoGradGuard, detach, reuse).
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gradcheck.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace duet::tensor {
namespace {

using duet::testing::ExpectGradMatchesNumeric;

Tensor RandomTensor(std::vector<int64_t> shape, Rng& rng, float lo, float hi,
                    bool requires_grad) {
  Tensor t = Tensor::Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = lo + rng.UniformFloat() * (hi - lo);
  }
  return t;
}

TEST(TensorBasics, ShapeAndNumel) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
}

TEST(TensorBasics, FromVectorChecksSize) {
  EXPECT_DEATH(Tensor::FromVector({2, 2}, {1.0f, 2.0f, 3.0f}), "CHECK");
}

TEST(TensorBasics, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(3.5f).item(), 3.5f);
}

TEST(TensorBasics, CloneIsDeep) {
  Tensor a = Tensor::Full({2}, 1.0f);
  Tensor b = a.Clone();
  b.data()[0] = 9.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 1.0f);
}

TEST(TensorBasics, DetachSharesNothingInGraph) {
  Tensor a = Tensor::Full({2}, 2.0f, /*requires_grad=*/true);
  Tensor b = MulScalar(a, 3.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_FLOAT_EQ(d.data()[0], 6.0f);
}

TEST(MatMulTest, ForwardValues) {
  // [1,2;3,4] x [5;6] = [17;39]
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({2, 1}, {5, 6});
  Tensor c = MatMul(a, w);
  EXPECT_FLOAT_EQ(c.data()[0], 17.0f);
  EXPECT_FLOAT_EQ(c.data()[1], 39.0f);
}

TEST(MatMulTest, GradWeight) {
  Rng rng(1);
  Tensor a = RandomTensor({3, 4}, rng, -1, 1, false);
  Tensor w = RandomTensor({4, 2}, rng, -1, 1, true);
  ExpectGradMatchesNumeric(w, [&] { return SumAll(MatMul(a, w)); });
}

TEST(MatMulTest, GradInput) {
  Rng rng(2);
  Tensor a = RandomTensor({3, 4}, rng, -1, 1, true);
  Tensor w = RandomTensor({4, 2}, rng, -1, 1, false);
  // Input-gradient path requires the input to be an interior node; wrap it.
  ExpectGradMatchesNumeric(a, [&] { return SumAll(MatMul(a, w)); });
}

TEST(AddBiasTest, ForwardAndGrad) {
  Rng rng(3);
  Tensor x = RandomTensor({2, 3}, rng, -1, 1, false);
  Tensor b = RandomTensor({3}, rng, -1, 1, true);
  Tensor y = AddBias(x, b);
  EXPECT_FLOAT_EQ(y.data()[0], x.data()[0] + b.data()[0]);
  ExpectGradMatchesNumeric(b, [&] { return SumAll(AddBias(x, b)); });
}

struct ElementwiseCase {
  const char* name;
  Tensor (*fn)(const Tensor&, const Tensor&);
};

class BinaryOpGradTest : public ::testing::TestWithParam<ElementwiseCase> {};

TEST_P(BinaryOpGradTest, GradBothSides) {
  Rng rng(4);
  Tensor a = RandomTensor({2, 3}, rng, 0.5f, 2.0f, true);
  Tensor b = RandomTensor({2, 3}, rng, 0.5f, 2.0f, true);
  auto fn = GetParam().fn;
  ExpectGradMatchesNumeric(a, [&] { return SumAll(fn(a, b)); });
  ExpectGradMatchesNumeric(b, [&] { return SumAll(fn(a, b)); });
}

INSTANTIATE_TEST_SUITE_P(AllBinaryOps, BinaryOpGradTest,
                         ::testing::Values(ElementwiseCase{"Add", Add},
                                           ElementwiseCase{"Sub", Sub},
                                           ElementwiseCase{"Mul", Mul},
                                           ElementwiseCase{"Div", Div}),
                         [](const ::testing::TestParamInfo<ElementwiseCase>& info) {
                           return info.param.name;
                         });

struct UnaryCase {
  const char* name;
  Tensor (*fn)(const Tensor&);
  float lo;
  float hi;
};

class UnaryOpGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryOpGradTest, Grad) {
  Rng rng(5);
  const UnaryCase& c = GetParam();
  Tensor x = RandomTensor({2, 4}, rng, c.lo, c.hi, true);
  ExpectGradMatchesNumeric(x, [&] { return SumAll(c.fn(x)); });
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryOpGradTest,
    ::testing::Values(UnaryCase{"Relu", Relu, 0.3f, 2.0f},
                      UnaryCase{"Sigmoid", Sigmoid, -2.0f, 2.0f},
                      UnaryCase{"Tanh", Tanh, -2.0f, 2.0f},
                      UnaryCase{"Exp", Exp, -1.0f, 1.0f},
                      UnaryCase{"Log", Log, 0.5f, 3.0f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) { return info.param.name; });

TEST(ScalarOpsTest, ForwardAndGrad) {
  Rng rng(6);
  Tensor x = RandomTensor({5}, rng, -1, 1, true);
  Tensor y = AddScalar(MulScalar(x, 2.0f), 1.0f);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], 2.0f * x.data()[i] + 1.0f);
  }
  ExpectGradMatchesNumeric(x, [&] { return SumAll(AddScalar(MulScalar(x, 2.0f), 1.0f)); });
}

TEST(ClampMinTest, ForwardAndGradMasksClampedSide) {
  Tensor x = Tensor::FromVector({3}, {-1.0f, 0.5f, 2.0f}, true);
  Tensor y = ClampMin(x, 0.0f);
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 0.5f);
  Tensor loss = SumAll(ClampMin(x, 0.0f));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad_vector()[0], 0.0f);
  EXPECT_FLOAT_EQ(x.grad_vector()[1], 1.0f);
  EXPECT_FLOAT_EQ(x.grad_vector()[2], 1.0f);
}

TEST(ConcatSliceTest, RoundTrip) {
  Rng rng(7);
  Tensor a = RandomTensor({2, 3}, rng, -1, 1, false);
  Tensor b = RandomTensor({2, 2}, rng, -1, 1, false);
  Tensor cat = ConcatCols({a, b});
  ASSERT_EQ(cat.dim(1), 5);
  Tensor a2 = SliceCols(cat, 0, 3);
  Tensor b2 = SliceCols(cat, 3, 2);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a2.data()[i], a.data()[i]);
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_FLOAT_EQ(b2.data()[i], b.data()[i]);
}

TEST(ConcatSliceTest, Grads) {
  Rng rng(8);
  Tensor a = RandomTensor({2, 3}, rng, -1, 1, true);
  Tensor b = RandomTensor({2, 2}, rng, -1, 1, true);
  ExpectGradMatchesNumeric(a, [&] { return SumAll(SliceCols(ConcatCols({a, b}), 1, 3)); });
  ExpectGradMatchesNumeric(b, [&] { return SumAll(SliceCols(ConcatCols({a, b}), 1, 3)); });
}

TEST(ConcatRowsTest, StacksAndGrads) {
  Rng rng(9);
  Tensor a = RandomTensor({1, 3}, rng, -1, 1, true);
  Tensor b = RandomTensor({2, 3}, rng, -1, 1, false);
  Tensor cat = ConcatRows({a, b});
  ASSERT_EQ(cat.dim(0), 3);
  EXPECT_FLOAT_EQ(cat.data()[0], a.data()[0]);
  EXPECT_FLOAT_EQ(cat.data()[3], b.data()[0]);
  ExpectGradMatchesNumeric(a, [&] { return SumAll(ConcatRows({a, b})); });
}

TEST(EmbeddingTest, LookupAndGrad) {
  Rng rng(10);
  Tensor w = RandomTensor({4, 3}, rng, -1, 1, true);
  std::vector<int32_t> idx = {2, 0, 2};
  Tensor y = EmbeddingLookup(w, idx);
  ASSERT_EQ(y.dim(0), 3);
  EXPECT_FLOAT_EQ(y.data()[0], w.data()[2 * 3 + 0]);
  // Repeated index 2 must accumulate twice in the gradient.
  Tensor loss = SumAll(EmbeddingLookup(w, idx));
  loss.Backward();
  EXPECT_FLOAT_EQ(w.grad_vector()[2 * 3 + 0], 2.0f);
  EXPECT_FLOAT_EQ(w.grad_vector()[0 * 3 + 0], 1.0f);
  EXPECT_FLOAT_EQ(w.grad_vector()[1 * 3 + 0], 0.0f);
  ExpectGradMatchesNumeric(w, [&] { return SumAll(EmbeddingLookup(w, idx)); });
}

TEST(SoftmaxTest, BlocksSumToOne) {
  Rng rng(11);
  Tensor x = RandomTensor({3, 7}, rng, -2, 2, false);
  std::vector<BlockSpec> blocks = {{0, 3}, {3, 4}};
  Tensor y = SoftmaxBlocks(x, blocks);
  for (int64_t r = 0; r < 3; ++r) {
    for (const BlockSpec& blk : blocks) {
      float sum = 0.0f;
      for (int64_t j = 0; j < blk.len; ++j) sum += y.data()[r * 7 + blk.offset + j];
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST(SoftmaxTest, Grad) {
  Rng rng(12);
  Tensor x = RandomTensor({2, 5}, rng, -1, 1, true);
  std::vector<BlockSpec> blocks = {{0, 2}, {2, 3}};
  // Weighted sum keeps the gradient non-trivial (plain sum would be ~0).
  Tensor wts = RandomTensor({2, 5}, rng, 0.1f, 1.0f, false);
  ExpectGradMatchesNumeric(x, [&] { return SumAll(Mul(SoftmaxBlocks(x, blocks), wts)); });
}

TEST(CrossEntropyTest, MatchesLogOfSoftmax) {
  // loss = (1/B) sum_b sum_n -log softmax_n(x[b])[t], from the public ops.
  Rng rng(13);
  Tensor x = RandomTensor({3, 6}, rng, -2, 2, false);
  std::vector<BlockSpec> blocks = {{0, 2}, {2, 4}};
  std::vector<int32_t> targets = {1, 3, 0, 0, 1, 2};
  Tensor p = SoftmaxBlocks(x, blocks);
  double want = 0.0;
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t k = 0; k < 2; ++k) {
      const BlockSpec& blk = blocks[static_cast<size_t>(k)];
      want -= std::log(p.data()[r * 6 + blk.offset + targets[static_cast<size_t>(r * 2 + k)]]);
    }
  }
  EXPECT_NEAR(CrossEntropyBlocks(x, blocks, targets).item(), want / 3.0, 1e-5);
}

TEST(CrossEntropyTest, PicksTargets) {
  // Uniform logits: each block contributes log(len) whatever the target.
  Tensor x = Tensor::FromVector({1, 5}, {3, 3, -1, -1, -1}, false);
  std::vector<BlockSpec> blocks = {{0, 2}, {2, 3}};
  std::vector<int32_t> targets = {1, 2};
  EXPECT_FLOAT_EQ(CrossEntropyBlocks(x, blocks, targets).item(), std::log(6.0f));
}

TEST(CrossEntropyTest, Grad) {
  Rng rng(15);
  Tensor x = RandomTensor({3, 5}, rng, -1, 1, true);
  std::vector<BlockSpec> blocks = {{0, 2}, {2, 3}};
  std::vector<int32_t> targets = {0, 2, 1, 0, 1, 1};
  ExpectGradMatchesNumeric(x, [&] { return CrossEntropyBlocks(x, blocks, targets); });
}

TEST(CrossEntropyTest, GradThroughScaledLoss) {
  // The upstream gradient is not 1 here, so the backward must scale by it.
  Rng rng(14);
  Tensor x = RandomTensor({2, 5}, rng, -1, 1, true);
  std::vector<BlockSpec> blocks = {{0, 3}, {3, 2}};
  std::vector<int32_t> targets = {2, 1, 0, 0};
  ExpectGradMatchesNumeric(x, [&] { return MulScalar(CrossEntropyBlocks(x, blocks, targets), -2.5f); });
}

TEST(MaskedSumTest, ForwardAndGrad) {
  Rng rng(16);
  Tensor p = RandomTensor({2, 5}, rng, 0.1f, 1.0f, true);
  Tensor mask = Tensor::FromVector({2, 5}, {1, 0, 1, 1, 0, 0, 1, 0, 0, 1}, false);
  std::vector<BlockSpec> blocks = {{0, 2}, {2, 3}};
  Tensor y = MaskedSumBlocks(p, mask, blocks);
  ASSERT_EQ(y.dim(1), 2);
  EXPECT_FLOAT_EQ(y.data()[0], p.data()[0]);
  EXPECT_FLOAT_EQ(y.data()[1], p.data()[2] + p.data()[3]);
  ExpectGradMatchesNumeric(p, [&] { return SumAll(MaskedSumBlocks(p, mask, blocks)); });
}

TEST(ReductionTest, SumColsMeanAllSumAll) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}, false);
  Tensor rows = SumCols(x);
  EXPECT_FLOAT_EQ(rows.data()[0], 6.0f);
  EXPECT_FLOAT_EQ(rows.data()[1], 15.0f);
  EXPECT_FLOAT_EQ(MeanAll(x).item(), 3.5f);
  EXPECT_FLOAT_EQ(SumAll(x).item(), 21.0f);
}

TEST(ReductionTest, Grads) {
  Rng rng(17);
  Tensor x = RandomTensor({3, 4}, rng, -1, 1, true);
  ExpectGradMatchesNumeric(x, [&] { return MeanAll(Exp(x)); });
  ExpectGradMatchesNumeric(x, [&] { return SumAll(Mul(SumCols(x), SumCols(x))); });
}

TEST(SelectTest, ChoosesBranchAndRoutesGrad) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3}, true);
  Tensor b = Tensor::FromVector({3}, {10, 20, 30}, true);
  std::vector<float> cond = {1, 0, 1};
  Tensor y = Select(cond, a, b);
  EXPECT_FLOAT_EQ(y.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 20.0f);
  Tensor loss = SumAll(Select(cond, a, b));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad_vector()[0], 1.0f);
  EXPECT_FLOAT_EQ(a.grad_vector()[1], 0.0f);
  EXPECT_FLOAT_EQ(b.grad_vector()[1], 1.0f);
}

TEST(MeanPoolTest, PoolsWithMask) {
  // B=2, S=2, H=2.
  Tensor x = Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8}, true);
  std::vector<float> mask = {1, 1, 1, 0};
  Tensor y = MeanPoolSegments(x, mask, 2, 2);
  EXPECT_FLOAT_EQ(y.data()[0], 2.0f);  // (1+3)/2
  EXPECT_FLOAT_EQ(y.data()[1], 3.0f);  // (2+4)/2
  EXPECT_FLOAT_EQ(y.data()[2], 5.0f);  // only first row present
  ExpectGradMatchesNumeric(x, [&] { return SumAll(MeanPoolSegments(x, mask, 2, 2)); });
}

TEST(ReshapeTest, PreservesDataAndGrad) {
  Rng rng(18);
  Tensor x = RandomTensor({2, 3}, rng, -1, 1, true);
  Tensor y = Reshape(x, {6});
  EXPECT_EQ(y.ndim(), 1);
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  ExpectGradMatchesNumeric(x, [&] { return SumAll(Exp(Reshape(x, {6, 1}))); });
}

TEST(BlockDiagTest, MatchesPerBlockMatMul) {
  Rng rng(19);
  const int64_t blocks = 3, in = 4, out = 2, b = 5;
  Tensor x = RandomTensor({b, blocks * in}, rng, -1, 1, false);
  Tensor w = RandomTensor({blocks, in, out}, rng, -1, 1, false);
  Tensor y = BlockDiagMatMul(x, w, blocks, in, out);
  for (int64_t k = 0; k < blocks; ++k) {
    Tensor xk = SliceCols(x, k * in, in);
    Tensor wk = Tensor::FromVector(
        {in, out},
        std::vector<float>(w.data() + k * in * out, w.data() + (k + 1) * in * out));
    Tensor yk = MatMul(xk, wk);
    for (int64_t r = 0; r < b; ++r) {
      for (int64_t c = 0; c < out; ++c) {
        EXPECT_NEAR(y.data()[r * blocks * out + k * out + c], yk.data()[r * out + c], 1e-4f);
      }
    }
  }
}

TEST(BlockDiagTest, Grads) {
  Rng rng(20);
  const int64_t blocks = 2, in = 3, out = 2, b = 2;
  Tensor x = RandomTensor({b, blocks * in}, rng, -1, 1, true);
  Tensor w = RandomTensor({blocks, in, out}, rng, -1, 1, true);
  ExpectGradMatchesNumeric(x, [&] { return SumAll(Exp(BlockDiagMatMul(x, w, blocks, in, out))); });
  ExpectGradMatchesNumeric(w, [&] { return SumAll(Exp(BlockDiagMatMul(x, w, blocks, in, out))); });
}

TEST(AutogradTest, ReusedTensorAccumulatesGrad) {
  Tensor x = Tensor::FromVector({1}, {3.0f}, true);
  // y = x*x + 2x -> dy/dx = 2x + 2 = 8.
  Tensor y = Add(Mul(x, x), MulScalar(x, 2.0f));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad_vector()[0], 8.0f);
}

TEST(AutogradTest, BackwardTwiceRecomputesFreshGrads) {
  Tensor x = Tensor::FromVector({1}, {2.0f}, true);
  Tensor y = Mul(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad_vector()[0], 4.0f);
  y.Backward();  // grads are re-seeded, not accumulated across calls
  EXPECT_FLOAT_EQ(x.grad_vector()[0], 4.0f);
}

TEST(AutogradTest, NoGradGuardSkipsGraph) {
  Tensor x = Tensor::FromVector({1}, {2.0f}, true);
  NoGradGuard guard;
  Tensor y = Mul(x, x);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_FALSE(static_cast<bool>(y.impl()->backward));
}

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Tensor y = x;
  for (int i = 0; i < 20000; ++i) y = AddScalar(y, 0.0f);
  Tensor loss = SumAll(y);
  loss.Backward();  // iterative topo sort must handle 20k-node chains
  EXPECT_FLOAT_EQ(x.grad_vector()[0], 1.0f);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  Tensor x = Tensor::FromVector({2}, {5.0f, -3.0f}, true);
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = SumAll(Mul(x, x));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-2f);
  EXPECT_NEAR(x.data()[1], 0.0f, 1e-2f);
}

TEST(OptimizerTest, SgdMinimizesQuadratic) {
  Tensor x = Tensor::FromVector({1}, {4.0f}, true);
  Sgd opt({x}, 0.1f, 0.5f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Tensor loss = SumAll(Mul(x, x));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.data()[0], 0.0f, 1e-3f);
}

TEST(OptimizerTest, UntouchedParamIsSkipped) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Tensor unused = Tensor::FromVector({1}, {7.0f}, true);
  Adam opt({x, unused}, 0.1f);
  opt.ZeroGrad();
  Tensor loss = SumAll(Mul(x, x));
  loss.Backward();
  opt.Step();
  EXPECT_FLOAT_EQ(unused.data()[0], 7.0f);
}

}  // namespace
}  // namespace duet::tensor
