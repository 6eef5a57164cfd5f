// Compiled inference-plan suite (nn/inference_plan.h): permutation parity,
// plan-cache coherence and backend-switch atomicity.
//
// The contract under test (`ctest -L plan`):
//  * compiled-plan forwards with dense and CSR packs are BITWISE-equal to
//    the autograd (gradient-enabled) forward for random MADE / ResMADE /
//    MLP configs — the degree-sorted output permutation changes the storage
//    layout and the skipped zeros, never a single accumulation order;
//  * int8 and int4 plans stay within an end-to-end envelope derived from
//    their documented per-layer bounds;
//  * the plan cache obeys the invalidation rules (parameter version bumps
//    and backend switches recompile, hits are counted);
//  * a backend switch racing concurrent forwards can never produce a torn
//    view: every planned forward matches exactly one backend's reference.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/inference_plan.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using nn::Made;
using nn::MadeOptions;
using tensor::Tensor;
using tensor::WeightBackend;

Tensor RandomInput(int64_t b, int64_t d, uint64_t seed, float zero_prob = 0.3f) {
  Rng rng(seed);
  Tensor x = Tensor::Zeros({b, d});
  float* p = x.data();
  for (int64_t i = 0; i < b * d; ++i) {
    // Exact zeros matter: every packed kernel keys on one-hot input sparsity.
    p[i] = rng.UniformFloat() < zero_prob ? 0.0f : (rng.UniformFloat() * 2.0f - 1.0f);
  }
  return x;
}

/// Reference: the gradient-enabled forward, i.e. the training graph's
/// layer loop (W o M materialized per masked layer, no plan involved).
template <typename Net>
std::vector<float> AutogradForward(const Net& net, const Tensor& x) {
  EXPECT_TRUE(tensor::NoGradGuard::GradEnabled());
  return net.Forward(x).value_vector();
}

template <typename Net>
std::vector<float> PlannedForward(const Net& net, const Tensor& x, WeightBackend backend) {
  net.SetInferenceBackend(backend);
  tensor::NoGradScope no_grad;
  Tensor y = net.Forward(x);
  return y.value_vector();
}

struct PlanCase {
  const char* name;
  bool residual;
  std::vector<int64_t> hidden;
};

class PlanParityTest : public ::testing::TestWithParam<PlanCase> {};

/// Random column-blocked configs: uneven block widths exercise multi-run
/// masks, heterogeneous hidden sizes exercise per-layer permutations.
MadeOptions RandomMadeOptions(const PlanCase& c, uint64_t seed) {
  Rng rng(seed);
  MadeOptions opt;
  const int cols = 3 + static_cast<int>(rng.UniformFloat() * 3.0f);  // 3..5
  for (int i = 0; i < cols; ++i) {
    opt.input_widths.push_back(2 + static_cast<int64_t>(rng.UniformFloat() * 5.0f));
    opt.output_widths.push_back(2 + static_cast<int64_t>(rng.UniformFloat() * 5.0f));
  }
  opt.hidden_sizes = c.hidden;
  opt.residual = c.residual;
  return opt;
}

TEST_P(PlanParityTest, DenseAndCsrPlansAreBitwiseEqualToAutograd) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(100 + seed);
    Made made(RandomMadeOptions(GetParam(), seed), rng);
    for (int64_t batch : {1, 7, 64}) {
      const Tensor x = RandomInput(batch, made.input_dim(), 17 * seed + batch);
      const std::vector<float> reference = AutogradForward(made, x);
      // Bitwise: the permuted packs accumulate every output element in the
      // same k-ascending order as the tracked GEMM and the gathering
      // epilogue applies the identical bias/activation expressions.
      EXPECT_EQ(PlannedForward(made, x, WeightBackend::kDenseF32), reference)
          << GetParam().name << " dense plan diverged (seed " << seed << ", batch "
          << batch << ")";
      EXPECT_EQ(PlannedForward(made, x, WeightBackend::kCsrF32), reference)
          << GetParam().name << " csr plan diverged (seed " << seed << ", batch "
          << batch << ")";
    }
  }
}

TEST_P(PlanParityTest, Int8AndInt4PlansAreAccuracyBounded) {
  Rng rng(7);
  Made made(RandomMadeOptions(GetParam(), 2), rng);
  const Tensor x = RandomInput(9, made.input_dim(), 23);
  const std::vector<float> reference = AutogradForward(made, x);
  const std::vector<float> int8 = PlannedForward(made, x, WeightBackend::kInt8);
  const std::vector<float> int4 = PlannedForward(made, x, WeightBackend::kInt4);
  ASSERT_EQ(int8.size(), reference.size());
  ASSERT_EQ(int4.size(), reference.size());
  double max_abs = 0.0;
  for (float v : reference) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
  // One envelope for both formats. int4 rounds each weight to within half a
  // step of its group scale, |dW| <= max|W_group| / 14 (the per-group bound
  // in tensor/packed_weights.h); int8's half step is max|W_col| / 254. A
  // 1/14 relative weight error compounding over two stacked layers gives
  // (1 + 1/14)^2 - 1 ~= 0.148, so 0.15 covers int4 with int8 far inside it.
  // Rounding errors are uncorrelated, so the observed worst case over these
  // architectures is much smaller (~0.025 int4, ~0.0013 int8).
  constexpr double kEnvelope = 0.15;
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(int8[i], reference[i], kEnvelope * std::max(1.0, max_abs))
        << "int8 logit " << i;
    EXPECT_NEAR(int4[i], reference[i], kEnvelope * std::max(1.0, max_abs))
        << "int4 logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, PlanParityTest,
    ::testing::Values(PlanCase{"PlainSmall", false, {32, 32}},
                      PlanCase{"PlainHetero", false, {48, 24, 40}},
                      PlanCase{"PlainDeep", false, {24, 24, 24, 24}},
                      PlanCase{"Res2x32", true, {32, 32}},
                      PlanCase{"Res3x24", true, {24, 24, 24}}),
    [](const ::testing::TestParamInfo<PlanCase>& info) { return info.param.name; });

TEST(MlpPlanParityTest, DenseAndCsrPlansAreBitwiseEqualToAutograd) {
  // Random widths; the dense plan shares the live parameter handles, the
  // CSR plan packs a copy (plain Linear weights have no structural zeros).
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng shape_rng(200 + seed);
    std::vector<int64_t> sizes;
    const int layers = 2 + static_cast<int>(shape_rng.UniformFloat() * 3.0f);  // 2..4
    for (int i = 0; i <= layers; ++i) {
      sizes.push_back(3 + static_cast<int64_t>(shape_rng.UniformFloat() * 40.0f));
    }
    Rng rng(300 + seed);
    nn::Mlp mlp(sizes, rng);
    for (int64_t batch : {1, 7, 64}) {
      const Tensor x = RandomInput(batch, sizes.front(), 31 * seed + batch);
      const std::vector<float> reference = AutogradForward(mlp, x);
      EXPECT_EQ(PlannedForward(mlp, x, WeightBackend::kDenseF32), reference)
          << "dense MLP plan diverged (seed " << seed << ", batch " << batch << ")";
      EXPECT_EQ(PlannedForward(mlp, x, WeightBackend::kCsrF32), reference)
          << "csr MLP plan diverged (seed " << seed << ", batch " << batch << ")";
    }
  }
}

// ----- permutation structure ----------------------------------------------

TEST(DegreeSortPermutationTest, SortsColumnsByDescendingNonzeroCount) {
  // Columns with 3, 1, 2, 3 nonzeros -> stable descending: 0, 3, 2, 1.
  Tensor w = Tensor::FromVector({3, 4}, {1.0f, 0.0f, 1.0f, 1.0f,  //
                                         1.0f, 0.0f, 0.0f, 1.0f,  //
                                         1.0f, 1.0f, 1.0f, 1.0f});
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(w);
  ASSERT_EQ(perm.size(), 4u);
  EXPECT_EQ(perm[0], 0);
  EXPECT_EQ(perm[1], 3);
  EXPECT_EQ(perm[2], 2);
  EXPECT_EQ(perm[3], 1);
}

TEST(DegreeSortPermutationTest, IdentityReturnsEmpty) {
  Tensor w = Tensor::FromVector({2, 3}, {1.0f, 1.0f, 0.0f,  //
                                         1.0f, 0.0f, 0.0f});
  EXPECT_TRUE(tensor::DegreeSortPermutation(w).empty());
}

TEST(PermutedPackTest, MadeMaskRowsDegenerateToSingleCsrRuns) {
  // A real MADE hidden mask: cycling degrees produce multiple runs per row
  // unpermuted; degree-sorted they must collapse to at most one run.
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees({3, 3, 3, 3});
  const std::vector<int32_t> hid = nn::MadeHiddenDegrees(24, 4);
  Tensor mask = nn::BuildMadeMask(in_deg, hid, /*strict=*/false);
  // Use the mask itself as the weight (all allowed entries nonzero).
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(mask);
  ASSERT_FALSE(perm.empty());
  auto packed = tensor::PackWeights(mask, WeightBackend::kCsrF32, &perm);
  ASSERT_TRUE(packed->permuted());
  for (int64_t k = 0; k < packed->in; ++k) {
    const int32_t runs = packed->row_ptr[static_cast<size_t>(k) + 1] -
                         packed->row_ptr[static_cast<size_t>(k)];
    EXPECT_LE(runs, 1) << "row " << k << " not a single run after permutation";
  }
  // Unpermuted, the cycling-degree mask needs strictly more runs in total.
  auto unpermuted = tensor::PackWeights(mask, WeightBackend::kCsrF32);
  EXPECT_GT(unpermuted->row_ptr.back(), packed->row_ptr.back());
}

TEST(PermutedPackTest, DensePrefixLengthsCoverExactlyTheNonzeros) {
  Rng rng(3);
  const std::vector<int32_t> in_deg = nn::MadeInputDegrees({2, 4, 3});
  const std::vector<int32_t> hid = nn::MadeHiddenDegrees(17, 3);
  Tensor mask = nn::BuildMadeMask(in_deg, hid, /*strict=*/false);
  Tensor w = Tensor::Zeros({mask.dim(0), mask.dim(1)});
  for (int64_t i = 0; i < w.numel(); ++i) {
    w.data()[i] = mask.data()[i] * (rng.UniformFloat() + 0.5f);
  }
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(w);
  ASSERT_FALSE(perm.empty());
  auto packed = tensor::PackWeights(w, WeightBackend::kDenseF32, &perm);
  ASSERT_FALSE(packed->row_len16.empty());
  const float* dense = packed->dense.data();
  for (int64_t k = 0; k < packed->in; ++k) {
    const int64_t len = packed->row_len16[static_cast<size_t>(k)];
    for (int64_t p = len; p < packed->out; ++p) {
      EXPECT_EQ(dense[k * packed->out + p], 0.0f)
          << "nonzero beyond prefix at row " << k << " col " << p;
    }
    if (len > 0) EXPECT_NE(dense[k * packed->out + len - 1], 0.0f);
  }
}

// ----- plan cache coherence ------------------------------------------------

TEST(PlanCacheTest, CompilesOnceThenHits) {
  Rng rng(5);
  MadeOptions opt;
  opt.input_widths = {3, 4};
  opt.output_widths = {3, 4};
  opt.hidden_sizes = {16, 16};
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 9);
  tensor::NoGradScope no_grad;
  made.Forward(x);
  const nn::PlanTelemetry after_first = made.PlanInfo();
  EXPECT_EQ(after_first.compiles, 1u);
  made.Forward(x);
  made.Forward(x);
  const nn::PlanTelemetry after_three = made.PlanInfo();
  EXPECT_EQ(after_three.compiles, 1u) << "steady-state forwards must not recompile";
  EXPECT_EQ(after_three.cache_hits, after_first.cache_hits + 2);
  EXPECT_GT(made.CachedBytes(), 0u);
}

TEST(PlanCacheTest, ParameterVersionBumpRecompiles) {
  Rng rng(6);
  MadeOptions opt;
  opt.input_widths = {3, 3};
  opt.output_widths = {3, 3};
  opt.hidden_sizes = {12};
  Made made(opt, rng);
  const Tensor x = RandomInput(1, made.input_dim(), 11);
  tensor::NoGradScope no_grad;
  const std::vector<float> before = made.Forward(x).value_vector();
  {
    tensor::ParameterMutationGuard guard;
    tensor::Tensor w0 = made.parameters()[0];  // shared handle, same storage
    w0.data()[0] += 1.0f;
  }
  const std::vector<float> after = made.Forward(x).value_vector();
  EXPECT_EQ(made.PlanInfo().compiles, 2u) << "version bump must recompile the plan";
  EXPECT_NE(before, after) << "stale plan served after parameter mutation";
}

TEST(PlanCacheTest, BackendSwitchRecompiles) {
  Rng rng(8);
  MadeOptions opt;
  opt.input_widths = {4, 2};
  opt.output_widths = {2, 4};
  opt.hidden_sizes = {10, 10};
  Made made(opt, rng);
  const Tensor x = RandomInput(1, made.input_dim(), 13);
  tensor::NoGradScope no_grad;
  made.Forward(x);
  made.SetInferenceBackend(WeightBackend::kCsrF32);
  made.Forward(x);
  EXPECT_EQ(made.PlanInfo().compiles, 2u);
  made.SetInferenceBackend(WeightBackend::kDenseF32);
  made.Forward(x);
  EXPECT_EQ(made.PlanInfo().compiles, 3u);
}

TEST(PlanCacheTest, TrainingForwardsBypassThePlan) {
  Rng rng(9);
  MadeOptions opt;
  opt.input_widths = {3, 3};
  opt.output_widths = {3, 3};
  opt.hidden_sizes = {8};
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 15);
  Tensor y = made.Forward(x);  // gradients enabled: must stay on the graph path
  EXPECT_EQ(made.PlanInfo().compiles, 0u);
  EXPECT_EQ(made.CachedBytes(), 0u);
  EXPECT_TRUE(static_cast<bool>(y.impl()->backward) || !y.impl()->parents.empty());
}

// ----- backend-switch atomicity (the SetInferenceBackend race guard) -------

TEST(PlanBackendSwitchTest, ConcurrentSwitchNeverYieldsTornForwards) {
  // Hammer no-grad forwards from worker threads while the main thread flips
  // the backend. Planned forwards resolve their backend exactly once per
  // forward (one atomically published program), so every observed output
  // must equal one of the per-backend references — a mixed or torn result
  // fails. This is the enforcement test for the SetInferenceBackend /
  // Forward publication contract.
  Rng rng(12);
  MadeOptions opt;
  opt.input_widths = {3, 4, 2};
  opt.output_widths = {4, 3, 2};
  opt.hidden_sizes = {24, 24};
  opt.residual = true;
  Made made(opt, rng);
  const Tensor x = RandomInput(2, made.input_dim(), 21);

  const std::vector<WeightBackend> backends = {WeightBackend::kDenseF32,
                                               WeightBackend::kCsrF32, WeightBackend::kInt8,
                                               WeightBackend::kInt4};
  std::vector<std::vector<float>> refs;
  for (WeightBackend b : backends) refs.push_back(PlannedForward(made, x, b));
  // dense and csr are bitwise-equal; int8 and int4 must differ from dense
  // and from each other here so the membership check below can actually
  // detect cross-backend mixing.
  ASSERT_EQ(refs[0], refs[1]);
  ASSERT_NE(refs[0], refs[2]);
  ASSERT_NE(refs[0], refs[3]);
  ASSERT_NE(refs[2], refs[3]);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      tensor::NoGradScope no_grad;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<float> y = made.Forward(x).value_vector();
        bool match = false;
        for (const auto& ref : refs) match |= (y == ref);
        if (!match) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    made.SetInferenceBackend(backends[static_cast<size_t>(round) % backends.size()]);
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(torn.load(), 0) << "a forward observed a torn/mixed backend view";
}

}  // namespace
}  // namespace duet
