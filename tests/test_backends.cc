// Packed-weight backend parity suite (tensor/packed_weights.h).
//
// The backend contract under test:
//  * kDenseF32 is bitwise-identical to the tracked (autograd) forward,
//  * kCsrF32 is bitwise-identical to dense (k-ascending accumulation, only
//    exact zeros skipped) at every batch size,
//  * kInt8 is accuracy-bounded per layer (|err_j| <= 0.5 * scale_j *
//    sum|x|) and end-to-end (median q-error within 1% of fp32 on the
//    seeded synthetic workload),
//  * every backend's compiled plan obeys the cache coherence rules
//    (optimizer step, checkpoint load, ParameterMutationGuard) and the
//    batch-invariance contract the serving engine shards under.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "baselines/naru/naru_model.h"
#include "common/thread_pool.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "nn/made.h"
#include "query/workload.h"
#include "serve/serving_engine.h"
#include "tensor/optimizer.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using query::Query;
using tensor::Tensor;
using tensor::WeightBackend;

data::Table SmallTable() { return data::CensusLike(600, 11); }

std::vector<Query> MakeQueries(const data::Table& table, int n, uint64_t seed = 31) {
  query::WorkloadSpec spec;
  spec.seed = seed;
  query::WorkloadGenerator gen(table, spec);
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queries.push_back(gen.GenerateQuery(rng));
  return queries;
}

/// A ~50%-sparse mask patterned like a MADE connectivity block.
Tensor CheckeredMask(int64_t in, int64_t out) {
  Tensor mask = Tensor::Zeros({in, out});
  float* m = mask.data();
  for (int64_t i = 0; i < in * out; ++i) m[i] = ((i / 3 + i % 7) % 2 == 0) ? 1.0f : 0.0f;
  return mask;
}

Tensor RandomInput(int64_t b, int64_t d, uint64_t seed, float zero_prob = 0.3f) {
  Rng rng(seed);
  Tensor x = Tensor::Zeros({b, d});
  float* p = x.data();
  for (int64_t i = 0; i < b * d; ++i) {
    // Mix in exact zeros: Duet inputs are one-hot-sparse and both GEMV fast
    // paths key on them.
    p[i] = rng.UniformFloat() < zero_prob ? 0.0f : (rng.UniformFloat() * 2.0f - 1.0f);
  }
  return x;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// ----- kernel-level tests --------------------------------------------------

TEST(PackWeightsTest, CsrLayoutMatchesDenseNonzeros) {
  Tensor w = Tensor::FromVector({3, 4}, {1.0f, 0.0f, 2.0f, 0.0f,    //
                                         0.0f, 0.0f, 0.0f, 0.0f,    //
                                         -3.0f, 4.0f, 0.0f, -0.0f});
  const auto packed = tensor::PackWeights(w, WeightBackend::kCsrF32);
  // Row 0 holds runs {0,len 1} and {2,len 1}; row 1 is empty; row 2 is one
  // run {0,len 2} (its trailing -0.0f is dropped along with exact zeros).
  EXPECT_EQ(packed->row_ptr, (std::vector<int32_t>{0, 2, 2, 3}));
  EXPECT_EQ(packed->val_ptr, (std::vector<int32_t>{0, 2, 2, 4}));
  EXPECT_EQ(packed->run_start16, (std::vector<uint16_t>{0, 2, 0}));  // narrow: out <= 65535
  EXPECT_EQ(packed->run_len16, (std::vector<uint16_t>{1, 1, 2}));
  EXPECT_TRUE(packed->run_start32.empty());
  EXPECT_EQ(packed->values, (std::vector<float>{1.0f, 2.0f, -3.0f, 4.0f}));
  EXPECT_EQ(packed->nnz(), 4);
  EXPECT_EQ(packed->bytes(),
            8u * sizeof(int32_t) + 6u * sizeof(uint16_t) + 4u * sizeof(float));
}

TEST(PackWeightsTest, Int8QuantizesPerOutputChannel) {
  Tensor w = Tensor::FromVector({2, 3}, {127.0f, -0.5f, 0.0f,  //
                                         -254.0f, 1.0f, 0.0f});
  const auto packed = tensor::PackWeights(w, WeightBackend::kInt8);
  ASSERT_EQ(packed->scales.size(), 3u);
  EXPECT_FLOAT_EQ(packed->scales[0], 2.0f);           // max|col0| = 254
  EXPECT_FLOAT_EQ(packed->scales[1], 1.0f / 127.0f);  // max|col1| = 1
  EXPECT_FLOAT_EQ(packed->scales[2], 0.0f);           // all-zero channel
  const std::vector<int8_t> expected = {64, -64, 0, -127, 127, 0};
  EXPECT_EQ(packed->quantized, expected);
  EXPECT_EQ(packed->bytes(), 6u * sizeof(int8_t) + 3u * sizeof(float));
}

TEST(PackedGemvTest, CsrBitwiseEqualsDense) {
  Rng rng(7);
  const int64_t in = 37, out = 29;
  Tensor w = Tensor::Zeros({in, out});
  for (int64_t i = 0; i < in * out; ++i) {
    w.data()[i] = (i % 2 == 0) ? 0.0f : (rng.UniformFloat() * 2.0f - 1.0f);
  }
  const Tensor x = RandomInput(1, in, 11);
  const auto dense = tensor::PackWeights(w, WeightBackend::kDenseF32);
  const auto csr = tensor::PackWeights(w, WeightBackend::kCsrF32);
  std::vector<float> yd(static_cast<size_t>(out), 0.0f), yc(static_cast<size_t>(out), 0.0f);
  tensor::PackedGemv(*dense, x.data(), yd.data());
  tensor::PackedGemv(*csr, x.data(), yc.data());
  EXPECT_EQ(yd, yc);  // bitwise: only exact zeros may be skipped
}

// ----- parameterized backend suite -----------------------------------------

class BackendTest : public ::testing::TestWithParam<WeightBackend> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(WeightBackend::kDenseF32, WeightBackend::kCsrF32,
                                           WeightBackend::kInt8),
                         [](const ::testing::TestParamInfo<WeightBackend>& info) {
                           return tensor::WeightBackendName(info.param);
                         });

/// One layer's inference under `backend`: the packed kernel a compiled plan
/// runs for it (unpermuted pack of the effective weight, fused epilogue).
template <typename Layer>
Tensor PackedLayerForward(const Layer& layer, const Tensor& x, WeightBackend backend) {
  tensor::NoGradScope no_grad;
  return tensor::PackedMatMulBiasAct(
             x, *tensor::PackWeights(layer.EffectiveWeightCopy(), backend), layer.bias(),
             tensor::Activation::kNone)
      .Clone();
}

/// Exact backends (dense, CSR) must match the tracked reference bitwise;
/// int8 must stay inside the per-channel quantization bound
/// |err_j| <= 0.5 * scale_j * sum_k |x_k| (+ tiny fp slack).
void ExpectLayerParity(const Tensor& got, const Tensor& reference, WeightBackend backend,
                       const Tensor& x, const Tensor& effective_w) {
  ASSERT_EQ(got.shape(), reference.shape());
  if (backend != WeightBackend::kInt8) {
    EXPECT_EQ(got.value_vector(), reference.value_vector());
    return;
  }
  const int64_t b = got.dim(0), out = got.dim(1), in = x.dim(1);
  std::vector<float> scale(static_cast<size_t>(out), 0.0f);
  for (int64_t k = 0; k < in; ++k) {
    for (int64_t j = 0; j < out; ++j) {
      scale[static_cast<size_t>(j)] =
          std::max(scale[static_cast<size_t>(j)], std::fabs(effective_w.data()[k * out + j]));
    }
  }
  for (int64_t r = 0; r < b; ++r) {
    float abs_x = 0.0f;
    for (int64_t k = 0; k < in; ++k) abs_x += std::fabs(x.data()[r * in + k]);
    for (int64_t j = 0; j < out; ++j) {
      const float atol =
          0.5f * (scale[static_cast<size_t>(j)] / 127.0f) * abs_x * 1.001f + 1e-5f;
      EXPECT_NEAR(got.value_vector()[static_cast<size_t>(r * out + j)],
                  reference.value_vector()[static_cast<size_t>(r * out + j)], atol)
          << "row " << r << " channel " << j;
    }
  }
}

TEST_P(BackendTest, MaskedLinearMatchesTrackedReference) {
  const WeightBackend backend = GetParam();
  for (uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    const int64_t in = 40 + static_cast<int64_t>(seed), out = 23 + static_cast<int64_t>(seed);
    nn::MaskedLinear layer(in, out, CheckeredMask(in, out), rng);
    for (int64_t b : {1, 5}) {
      const Tensor x = RandomInput(b, in, seed * 101);
      const Tensor reference = layer.Forward(x).Clone();  // tracked fp32 path
      const Tensor got = PackedLayerForward(layer, x, backend);
      const Tensor wm = tensor::Mul(layer.weight(), layer.mask());
      ExpectLayerParity(got, reference, backend, x, wm);
    }
  }
}

TEST_P(BackendTest, LinearMatchesTrackedReference) {
  const WeightBackend backend = GetParam();
  Rng rng(9);
  nn::Linear layer(31, 17, rng);
  const Tensor x = RandomInput(4, 31, 77);
  const Tensor reference = layer.Forward(x).Clone();
  const Tensor got = PackedLayerForward(layer, x, backend);
  ExpectLayerParity(got, reference, backend, x, layer.weight());
}

/// Random MADE configs: dense and CSR agree bitwise end-to-end; int8 stays
/// finite and close (compounding per-layer bounds are checked above).
TEST_P(BackendTest, MadeForwardParityOnRandomConfigs) {
  const WeightBackend backend = GetParam();
  struct Config {
    std::vector<int64_t> hidden;
    bool residual;
    uint64_t seed;
  };
  const std::vector<Config> configs = {
      {{32, 48}, false, 21}, {{64}, false, 22}, {{40, 40}, true, 23}};
  for (const Config& cfg : configs) {
    nn::MadeOptions opt;
    opt.input_widths = {5, 9, 4, 7};
    opt.output_widths = {6, 11, 3, 8};
    opt.hidden_sizes = cfg.hidden;
    opt.residual = cfg.residual;
    Rng rng(cfg.seed);
    nn::Made made(opt, rng);
    const Tensor x = RandomInput(6, made.input_dim(), cfg.seed * 7, /*zero_prob=*/0.5f);
    // Reference: the tracked (autograd) forward.
    const Tensor reference = made.Forward(x).Clone();
    Tensor got;
    made.SetInferenceBackend(backend);
    {
      tensor::NoGradScope no_grad;
      got = made.Forward(x).Clone();
    }
    ASSERT_EQ(got.shape(), reference.shape());
    if (backend != WeightBackend::kInt8) {
      EXPECT_EQ(got.value_vector(), reference.value_vector())
          << "residual=" << cfg.residual << " seed=" << cfg.seed;
    } else {
      for (int64_t i = 0; i < got.numel(); ++i) {
        EXPECT_NEAR(got.value_vector()[static_cast<size_t>(i)],
                    reference.value_vector()[static_cast<size_t>(i)], 0.35f)
            << "logit " << i;
      }
    }
  }
}

/// The serving contract: per-row results are independent of how queries are
/// grouped into batches — for every backend, including int8 (its kernels
/// accumulate k-ascending per row too).
TEST_P(BackendTest, EstimatesAreBatchSizeInvariant) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  model.SetInferenceBackend(GetParam());
  const std::vector<Query> queries = MakeQueries(t, 30);

  const std::vector<double> whole = model.EstimateSelectivityBatch(queries);
  std::vector<double> chunked;
  for (size_t begin = 0; begin < queries.size(); begin += 7) {
    const size_t end = std::min(queries.size(), begin + 7);
    const std::vector<Query> chunk(queries.begin() + static_cast<int64_t>(begin),
                                   queries.begin() + static_cast<int64_t>(end));
    const std::vector<double> part = model.EstimateSelectivityBatch(chunk);
    chunked.insert(chunked.end(), part.begin(), part.end());
  }
  EXPECT_EQ(whole, chunked);
  // And the scalar path agrees with batch 1 of the batch path.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(model.EstimateSelectivity(queries[i]), whole[i]) << "query " << i;
  }
}

/// A small MADE for the plan-cache coherence tests.
nn::MadeOptions TinyMadeOptions() {
  nn::MadeOptions opt;
  opt.input_widths = {2, 3, 1};
  opt.output_widths = {3, 2, 2};
  opt.hidden_sizes = {8};
  return opt;
}

/// Cache invalidation (the test_serve masked-weight cache suite, rerun per
/// backend): an optimizer step must recompile the plan, and the recompiled
/// forward must match a cache-cold model bitwise.
TEST_P(BackendTest, PackedCacheInvalidatedByOptimizerStep) {
  const WeightBackend backend = GetParam();
  Rng rng(5);
  nn::Made made(TinyMadeOptions(), rng);
  made.SetInferenceBackend(backend);
  const Tensor x = RandomInput(2, made.input_dim(), 55);

  auto no_grad_forward = [&] {
    tensor::NoGradScope scope;
    return made.Forward(x).Clone();
  };

  const Tensor before = no_grad_forward();
  {
    tensor::Sgd sgd({made.parameters()}, /*lr=*/0.1f);
    for (const Tensor& p : made.parameters()) {
      Tensor param = p;  // shared handle; grads live on the impl
      float* g = param.grad_data();
      for (int64_t i = 0; i < param.numel(); ++i) g[i] = 1.0f;
    }
    sgd.Step();
  }
  const Tensor after = no_grad_forward();
  EXPECT_NE(after.value_vector(), before.value_vector())
      << "cache served stale packed weights after an optimizer step";

  // Cache-cold reference: a fresh model with identical weights (checkpoint
  // round-trip) must produce the identical packed forward.
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    made.Save(w);
  }
  Rng rng2(6);
  nn::Made fresh(TinyMadeOptions(), rng2);
  fresh.SetInferenceBackend(backend);
  {
    BinaryReader r(buf);
    fresh.Load(r);
  }
  tensor::NoGradScope scope;
  EXPECT_EQ(fresh.Forward(x).value_vector(), after.value_vector());
}

/// Checkpoint round-trip through a full model: post-load estimates must be
/// identical to a cache-cold model's (stale packs must not survive Load).
TEST_P(BackendTest, PackedCacheInvalidatedByCheckpointLoad) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  model.SetInferenceBackend(GetParam());
  const std::vector<Query> queries = MakeQueries(t, 12);

  const std::vector<double> before = model.EstimateSelectivityBatch(queries);

  core::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 128;
  core::DuetTrainer(model, topt).Train();
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    model.Save(w);
  }
  const std::vector<double> after = model.EstimateSelectivityBatch(queries);
  EXPECT_NE(after, before) << "estimates unchanged after training: stale pack?";

  core::DuetModel fresh(t, opt);
  fresh.SetInferenceBackend(GetParam());
  {
    BinaryReader r(buf);
    fresh.Load(r);
  }
  EXPECT_EQ(fresh.EstimateSelectivityBatch(queries), after);
}

/// Sharded serving per backend: the engine serves the estimator's own
/// backend and stays bitwise-equal to the single-thread batch path (which,
/// for int8, runs the same int8 kernels — invariance, not fp32 equality).
TEST_P(BackendTest, ServingEngineShardsBitwiseUnderBackend) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  est.SetInferenceBackend(GetParam());
  ThreadPool::SetGlobalThreads(4);
  {
    serve::ServingOptions sopt;
    sopt.min_shard = 4;
    serve::ServingEngine engine(est, sopt);
    const std::vector<Query> queries = MakeQueries(t, 33);

    const std::vector<double> sharded = engine.EstimateBatch(queries);
    const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
    EXPECT_EQ(sharded, reference);

    const serve::ServingStats stats = engine.stats();
    EXPECT_GT(stats.packed_weight_bytes, 0u)
        << "plan unpopulated after serving traffic";
  }
  ThreadPool::SetGlobalThreads(0);
}

/// Wrapping an estimator in a default-options engine serves it as its
/// owner configured it: an int8 estimator must not be reset to dense.
TEST(ServingBackendTest, DefaultEngineKeepsEstimatorBackend) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 9);

  est.SetInferenceBackend(WeightBackend::kInt8);
  const std::vector<double> int8_direct = est.EstimateSelectivityBatch(queries);
  const uint64_t int8_bytes = est.PackedWeightBytes();
  ASSERT_GT(int8_bytes, 0u);

  serve::ServingEngine engine(est);
  EXPECT_EQ(engine.EstimateBatch(queries), int8_direct);
  EXPECT_EQ(engine.stats().packed_weight_bytes, int8_bytes)
      << "the engine changed the estimator's weight backend";
}

// ----- memory observability ------------------------------------------------

TEST(PackedCacheBytesTest, BackendFootprintsAreOrdered) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  const std::vector<Query> queries = MakeQueries(t, 4);

  EXPECT_EQ(model.CachedBytes(), 0u) << "no forward yet: cache must be empty";

  auto bytes_under = [&](WeightBackend b) {
    model.SetInferenceBackend(b);
    model.EstimateSelectivityBatch(queries);  // populate lazily
    return model.CachedBytes();
  };
  const uint64_t dense = bytes_under(WeightBackend::kDenseF32);
  const uint64_t csr = bytes_under(WeightBackend::kCsrF32);
  const uint64_t int8 = bytes_under(WeightBackend::kInt8);

  // A dense plan holds a full W o M copy per masked layer (4 bytes/weight). MADE masks are ~50% zeros, so CSR's 8 bytes
  // per nonzero lands near dense, and int8 is ~4x smaller than dense.
  EXPECT_GT(dense, 0u);
  EXPECT_LT(csr, dense);
  EXPECT_LT(int8, dense / 3);
  EXPECT_GT(model.SizeMB(), 0.0);
}

/// Every Made-backed estimator must forward backend selection and report
/// its plan's packed weights — not inherit the silent no-op defaults (a regression
/// here means SetInferenceBackend is ignored and packed_weight_bytes
/// reads 0 for that estimator).
TEST(PackedCacheBytesTest, NaruEstimatorForwardsBackendAndReportsBytes) {
  const data::Table t = data::CensusLike(200, 5);
  baselines::NaruOptions nopt;
  nopt.hidden_sizes = {16, 16};
  baselines::NaruModel model(t, nopt);
  baselines::NaruEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 2);

  est.SetInferenceBackend(WeightBackend::kInt8);
  est.EstimateSelectivityBatch(queries);
  EXPECT_GT(est.PackedWeightBytes(), 0u);
  EXPECT_EQ(est.PackedWeightBytes(), model.made().CachedBytes());
  // int8 packs are ~4x smaller than the fp32 parameters they shadow.
  EXPECT_LT(static_cast<double>(est.PackedWeightBytes()),
            model.made().NumParams() * sizeof(float) / 2.0);
}

TEST(PackedCacheBytesTest, MlpPlanFootprintMatchesBackend) {
  Rng rng(6);
  const int64_t in = 24, out = 12;
  nn::Mlp mlp({in, out}, rng);
  const Tensor x = RandomInput(1, in, 9);
  tensor::NoGradScope no_grad;

  mlp.SetInferenceBackend(WeightBackend::kInt8);
  mlp.Forward(x);
  EXPECT_EQ(mlp.CachedBytes(),
            static_cast<uint64_t>(in * out) * sizeof(int8_t) +
                static_cast<uint64_t>(out) * sizeof(float));

  // A dense plan over plain Linear weights shares the parameter tensors:
  // it adds no weight memory, and the int8 program it replaced is freed.
  mlp.SetInferenceBackend(WeightBackend::kDenseF32);
  mlp.Forward(x);
  EXPECT_EQ(mlp.CachedBytes(), 0u);
}

// ----- end-to-end accuracy guard -------------------------------------------

/// int8 must track fp32 closely on the seeded synthetic workload: median
/// q-error within 1% (CSR is bitwise so its guard is exact equality).
TEST(BackendAccuracyTest, Int8MedianQErrorWithinOnePercentOfFp32) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  core::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 128;
  core::DuetTrainer(model, topt).Train();

  query::WorkloadSpec spec;
  spec.num_queries = 80;
  spec.seed = 97;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  std::vector<Query> queries;
  for (const auto& lq : wl) queries.push_back(lq.query);
  const int64_t rows = t.num_rows();

  auto qerrors_under = [&](WeightBackend b) {
    model.SetInferenceBackend(b);
    const std::vector<double> sels = model.EstimateSelectivityBatch(queries);
    std::vector<double> errs;
    errs.reserve(sels.size());
    for (size_t i = 0; i < sels.size(); ++i) {
      const double est = std::max(1.0, sels[i] * static_cast<double>(rows));
      errs.push_back(query::QError(est, static_cast<double>(wl[i].cardinality)));
    }
    return errs;
  };
  const double median_fp32 = Median(qerrors_under(WeightBackend::kDenseF32));
  const double median_csr = Median(qerrors_under(WeightBackend::kCsrF32));
  const double median_int8 = Median(qerrors_under(WeightBackend::kInt8));

  EXPECT_EQ(median_csr, median_fp32) << "CSR is a bitwise backend";
  EXPECT_LE(std::fabs(median_int8 - median_fp32), 0.01 * median_fp32)
      << "int8 median " << median_int8 << " vs fp32 " << median_fp32;
}

// ----- ParameterMutationGuard ----------------------------------------------

TEST(ParameterMutationGuardTest, BumpsVersionOnScopeExit) {
  const uint64_t before = tensor::ParameterVersion();
  {
    tensor::ParameterMutationGuard guard;
    EXPECT_EQ(tensor::ParameterVersion(), before) << "guard must bump on exit, not entry";
  }
  EXPECT_EQ(tensor::ParameterVersion(), before + 1);
}

TEST(ParameterMutationGuardTest, RawDataMutationUnderGuardInvalidatesPack) {
  Rng rng(8);
  nn::Made made(TinyMadeOptions(), rng);
  made.SetInferenceBackend(WeightBackend::kCsrF32);
  const Tensor x = RandomInput(1, made.input_dim(), 21);

  auto no_grad_forward = [&] {
    tensor::NoGradScope scope;
    return made.Forward(x).Clone();
  };
  const Tensor before = no_grad_forward();
  {
    // The footgun this guard fixes: mutating W through data() used to
    // require remembering a manual BumpParameterVersion() call.
    tensor::ParameterMutationGuard mutation;
    Tensor w = made.parameters()[0];
    for (int64_t i = 0; i < w.numel(); ++i) w.data()[i] += 0.25f;
  }
  const Tensor after = no_grad_forward();
  EXPECT_NE(after.value_vector(), before.value_vector())
      << "packed cache survived a guarded raw-data() mutation";
}

}  // namespace
}  // namespace duet
