// Runtime SIMD dispatch parity suite (tensor/simd_dispatch.h) plus the
// int4 per-group pack-format units (tensor/packed_weights.h).
//
// The dispatch contract under test:
//  * every tier the CPU supports is deterministic and bitwise-repeatable,
//  * every tier is bitwise-identical to the scalar tier for EVERY backend
//    (the shared kernel source uses plain mul+add, no FMA contraction, no
//    cross-lane reductions — width changes throughput, never values), which
//    subsumes the per-backend error bounds: int8/int4 stay inside their
//    documented bounds vs fp32 on any tier because they are bitwise the
//    scalar-tier results that test_backends already bounds,
//  * CSR stays bitwise-equal to dense within each tier,
//  * ForceIsa/DUET_FORCE_ISA degrade safely: unsupported tiers are refused
//    in-process (and clamped at startup), never crash.
//
// The int4 contract under test:
//  * nibble layout (two packed columns per byte, low nibble first, odd-out
//    tail nibble zero; signed [-7,7] as two's-complement low nibbles),
//  * group-major per-(group, packed-column) scales s[g][j] = max|W|/7,
//  * degree-sorted permutation + prefix-skip parity,
//  * the per-output error bound |y_q - y| <= 0.5 * sum_k |x_k| * s[g(k),j],
//  * end-to-end: int4 median q-error within 1% of fp32.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "nn/made.h"
#include "query/workload.h"
#include "tensor/packed_weights.h"
#include "tensor/simd_dispatch.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

namespace simd = tensor::simd;
using query::Query;
using tensor::Tensor;
using tensor::WeightBackend;

/// Restores the previously active tier on scope exit, so a test that forces
/// a tier cannot leak it into later tests.
class ScopedIsa {
 public:
  explicit ScopedIsa(const std::string& name) : prev_(simd::ActiveIsaName()) {
    ok_ = simd::ForceIsa(name);
  }
  ~ScopedIsa() { simd::ForceIsa(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
  bool ok() const { return ok_; }

 private:
  std::string prev_;
  bool ok_ = false;
};

/// Tier names this CPU can actually run (probed via ForceIsa; the active
/// selection is restored). Always contains at least the baseline tier.
std::vector<std::string> SupportedTierNames() {
  const std::string prev = simd::ActiveIsaName();
  std::vector<std::string> names;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (simd::ForceIsa(name)) names.emplace_back(name);
  }
  simd::ForceIsa(prev);
  return names;
}

const std::vector<WeightBackend> kAllBackends = {
    WeightBackend::kDenseF32, WeightBackend::kCsrF32, WeightBackend::kInt8,
    WeightBackend::kInt4};

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
    p[i] = rng.UniformFloat() < zero_prob ? 0.0f : (rng.UniformFloat() * 2.0f - 1.0f);
  }
  return x;
}

/// A masked random weight (exact zeros where the mask is 0), the shape the
/// packed kernels' zero-skip and prefix paths key on.
Tensor MaskedWeight(int64_t in, int64_t out, uint64_t seed) {
  Rng rng(seed);
  const Tensor mask = CheckeredMask(in, out);
  Tensor w = Tensor::Zeros({in, out});
  for (int64_t i = 0; i < in * out; ++i) {
    w.data()[i] = mask.data()[i] != 0.0f ? (rng.UniformFloat() * 2.0f - 1.0f) : 0.0f;
  }
  return w;
}

/// 1-D bias vector (PackedMatMulBiasAct requires ndim 1).
Tensor RandomBias(int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor b = Tensor::Zeros({d});
  for (int64_t i = 0; i < d; ++i) b.data()[i] = rng.UniformFloat() * 2.0f - 1.0f;
  return b;
}

/// One fused packed forward under the ACTIVE tier.
std::vector<float> PackedForward(const tensor::PackedWeights& w, const Tensor& x,
                                 const Tensor& bias) {
  tensor::NoGradScope no_grad;
  return tensor::PackedMatMulBiasAct(x, w, bias, tensor::Activation::kRelu).value_vector();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// ----- dispatch selection ---------------------------------------------------

TEST(SimdDispatchTest, ProbeIsCoherent) {
  // Kernels() must have selected a tier the CPU supports, and the name must
  // round-trip through ForceIsa.
  (void)simd::Kernels();
  EXPECT_LE(simd::ActiveIsa(), simd::DetectIsa());
  EXPECT_TRUE(simd::ForceIsa(simd::ActiveIsaName()));
}

TEST(SimdDispatchTest, ForceIsaRefusesUnknownAndUnsupported) {
  const std::string prev = simd::ActiveIsaName();
  EXPECT_FALSE(simd::ForceIsa("sse9"));
  EXPECT_FALSE(simd::ForceIsa(""));
  EXPECT_EQ(simd::ActiveIsaName(), prev) << "a refused ForceIsa must not switch tiers";
  if (simd::DetectIsa() < simd::IsaTier::kAvx512) {
    EXPECT_FALSE(simd::ForceIsa("avx512"));
    EXPECT_EQ(simd::ActiveIsaName(), prev);
  }
}

TEST(SimdDispatchTest, BaselineTierAlwaysAvailable) {
  // "scalar" (and its aarch64 alias "neon") must be forceable on any host —
  // the portable fallback can never be refused.
  const std::string prev = simd::ActiveIsaName();
  EXPECT_TRUE(simd::ForceIsa("scalar"));
  EXPECT_TRUE(simd::ForceIsa("neon"));
  EXPECT_EQ(simd::ActiveIsa(), simd::IsaTier::kScalar);
  EXPECT_TRUE(simd::ForceIsa(prev));
}

// ----- per-tier determinism and cross-tier bitwise parity -------------------

TEST(SimdParityTest, EachTierIsBitwiseRepeatable) {
  const int64_t in = 43, out = 29;
  const Tensor w = MaskedWeight(in, out, 5);
  const Tensor x = RandomInput(3, in, 7);
  const Tensor bias = RandomBias(out, 9);
  for (const std::string& tier : SupportedTierNames()) {
    ScopedIsa isa(tier);
    ASSERT_TRUE(isa.ok());
    for (WeightBackend backend : kAllBackends) {
      const auto packed = tensor::PackWeights(w, backend);
      const std::vector<float> first = PackedForward(*packed, x, bias);
      const std::vector<float> second = PackedForward(*packed, x, bias);
      EXPECT_EQ(first, second) << "tier " << tier << " backend "
                               << tensor::WeightBackendName(backend);
    }
  }
}

TEST(SimdParityTest, EveryTierMatchesScalarBitwiseForEveryBackend) {
  const int64_t in = 61, out = 37;  // odd out: exercises the int4 tail nibble
  const Tensor w = MaskedWeight(in, out, 11);
  const Tensor x = RandomInput(4, in, 13);
  const Tensor bias = RandomBias(out, 17);
  for (WeightBackend backend : kAllBackends) {
    const auto packed = tensor::PackWeights(w, backend);
    std::vector<float> scalar_result;
    {
      ScopedIsa isa("scalar");
      ASSERT_TRUE(isa.ok());
      scalar_result = PackedForward(*packed, x, bias);
    }
    for (const std::string& tier : SupportedTierNames()) {
      ScopedIsa isa(tier);
      ASSERT_TRUE(isa.ok());
      EXPECT_EQ(PackedForward(*packed, x, bias), scalar_result)
          << "tier " << tier << " diverged from scalar for backend "
          << tensor::WeightBackendName(backend);
    }
  }
}

TEST(SimdParityTest, MadeForwardIsBitwiseIdenticalAcrossTiers) {
  nn::MadeOptions opt;
  opt.input_widths = {5, 9, 4, 7};
  opt.output_widths = {6, 11, 3, 8};
  opt.hidden_sizes = {40, 40};
  opt.residual = true;
  Rng rng(23);
  nn::Made made(opt, rng);
  const Tensor x = RandomInput(6, made.input_dim(), 29, /*zero_prob=*/0.5f);
  for (WeightBackend backend : kAllBackends) {
    made.SetInferenceBackend(backend);
    std::vector<float> scalar_result;
    {
      ScopedIsa isa("scalar");
      ASSERT_TRUE(isa.ok());
      tensor::NoGradScope no_grad;
      scalar_result = made.Forward(x).value_vector();
    }
    for (const std::string& tier : SupportedTierNames()) {
      ScopedIsa isa(tier);
      ASSERT_TRUE(isa.ok());
      tensor::NoGradScope no_grad;
      EXPECT_EQ(made.Forward(x).value_vector(), scalar_result)
          << "tier " << tier << " backend " << tensor::WeightBackendName(backend);
    }
  }
}

TEST(SimdParityTest, CsrBitwiseEqualsDenseWithinEachTier) {
  const int64_t in = 37, out = 29;
  const Tensor w = MaskedWeight(in, out, 31);
  const Tensor x = RandomInput(1, in, 33);
  const auto dense = tensor::PackWeights(w, WeightBackend::kDenseF32);
  const auto csr = tensor::PackWeights(w, WeightBackend::kCsrF32);
  for (const std::string& tier : SupportedTierNames()) {
    ScopedIsa isa(tier);
    ASSERT_TRUE(isa.ok());
    std::vector<float> yd(static_cast<size_t>(out), 0.0f);
    std::vector<float> yc(static_cast<size_t>(out), 0.0f);
    tensor::PackedGemv(*dense, x.data(), yd.data());
    tensor::PackedGemv(*csr, x.data(), yc.data());
    EXPECT_EQ(yd, yc) << "tier " << tier;
  }
}

// ----- int4 pack format -----------------------------------------------------

TEST(Int4PackFormatTest, NibbleLayoutScalesAndOddOutTail) {
  // in=2 (one group), out=3 (odd: the final high nibble must stay zero).
  // Column maxima: |{-7, 14}| -> 14, |{3.5, 1}| -> 3.5, |{0, 0}| -> 0.
  const Tensor w = Tensor::FromVector({2, 3}, {-7.0f, 3.5f, 0.0f,  //
                                               14.0f, 1.0f, 0.0f});
  const auto packed = tensor::PackWeights(w, WeightBackend::kInt4);
  ASSERT_EQ(packed->backend, WeightBackend::kInt4);
  ASSERT_EQ(packed->group_scales.size(), 3u);  // ceil(2/32) groups x 3 cols
  EXPECT_FLOAT_EQ(packed->group_scales[0], 2.0f);         // 14 / 7
  EXPECT_FLOAT_EQ(packed->group_scales[1], 0.5f);         // 3.5 / 7
  EXPECT_FLOAT_EQ(packed->group_scales[2], 0.0f);         // all-zero channel
  // Row stride (3+1)/2 = 2 bytes. Quantized values: row 0 = {-7/2, 3.5/.5, 0}
  // = {round(-3.5), 7, 0} = {-4, 7, 0}; row 1 = {7, 2, 0}.
  // nearbyint(-3.5) rounds-to-even to -4. Two's-complement low nibbles:
  // -4 -> 0xC. Byte 0 of row 0 = low(-4) | high(7) = 0x7C; byte 1 = 0x00.
  ASSERT_EQ(packed->nibbles.size(), 4u);
  EXPECT_EQ(packed->nibbles[0], 0x7Cu);
  EXPECT_EQ(packed->nibbles[1], 0x00u) << "odd-out tail nibble must be zero";
  EXPECT_EQ(packed->nibbles[2], 0x27u);  // low(7)=0x7, high(2)=0x2
  EXPECT_EQ(packed->nibbles[3], 0x00u);
  // Decode contract: (x ^ 8) - 8 recovers the signed value.
  EXPECT_EQ(((packed->nibbles[0] & 0xF) ^ 8) - 8, -4);
  EXPECT_EQ((((packed->nibbles[0] >> 4) & 0xF) ^ 8) - 8, 7);
  EXPECT_EQ(packed->bytes(), 4u * sizeof(uint8_t) + 3u * sizeof(float));
}

TEST(Int4PackFormatTest, GroupScalesAreGroupMajorPerColumn) {
  // Two k-groups (rows 0..31 and 32..39): distinct magnitudes per group so
  // the per-group maxima are distinguishable from a per-column max.
  const int64_t in = tensor::kInt4GroupSize + 8, out = 2;
  Tensor w = Tensor::Zeros({in, out});
  for (int64_t k = 0; k < in; ++k) {
    const bool second = k >= tensor::kInt4GroupSize;
    w.data()[k * out + 0] = second ? 0.7f : 7.0f;
    w.data()[k * out + 1] = second ? 14.0f : 1.4f;
  }
  const auto packed = tensor::PackWeights(w, WeightBackend::kInt4);
  ASSERT_EQ(packed->group_scales.size(), 4u);  // 2 groups x 2 cols, group-major
  EXPECT_FLOAT_EQ(packed->group_scales[0], 1.0f);   // g0 col0: 7/7
  EXPECT_FLOAT_EQ(packed->group_scales[1], 0.2f);   // g0 col1: 1.4/7
  EXPECT_FLOAT_EQ(packed->group_scales[2], 0.1f);   // g1 col0: 0.7/7
  EXPECT_FLOAT_EQ(packed->group_scales[3], 2.0f);   // g1 col1: 14/7
}

TEST(Int4PackFormatTest, FootprintIsWellUnderInt8) {
  const int64_t in = 128, out = 96;
  const Tensor w = MaskedWeight(in, out, 41);
  const auto int8 = tensor::PackWeights(w, WeightBackend::kInt8);
  const auto int4 = tensor::PackWeights(w, WeightBackend::kInt4);
  // Payload is exactly half; group scales add out * 4 bytes per 32 input
  // rows, so the total lands at ~0.625x int8 for deep groups.
  EXPECT_EQ(int4->nibbles.size(), static_cast<size_t>(in) * ((out + 1) / 2));
  EXPECT_LT(int4->bytes(), static_cast<uint64_t>(0.7 * static_cast<double>(int8->bytes())));
}

TEST(Int4PackFormatTest, PermutedPackMatchesIdentityBitwise) {
  // The degree-sorted permutation reorders columns before quantization; the
  // per-(group, packed-column) scale moves with its column, so packed
  // position p of the permuted GEMV must equal original column perm[p] of
  // the identity GEMV — bitwise, on every tier.
  const int64_t in = 48, out = 24;
  const Tensor w = MaskedWeight(in, out, 43);
  const std::vector<int32_t> perm = tensor::DegreeSortPermutation(w);
  ASSERT_FALSE(perm.empty()) << "mask degenerate: degree sort collapsed to identity";
  const auto identity = tensor::PackWeights(w, WeightBackend::kInt4);
  const auto permuted = tensor::PackWeights(w, WeightBackend::kInt4, &perm);
  ASSERT_TRUE(permuted->permuted());
  const Tensor x = RandomInput(1, in, 47);
  for (const std::string& tier : SupportedTierNames()) {
    ScopedIsa isa(tier);
    ASSERT_TRUE(isa.ok());
    std::vector<float> y_id(static_cast<size_t>(out), 0.0f);
    std::vector<float> y_perm(static_cast<size_t>(out), 0.0f);
    tensor::PackedGemv(*identity, x.data(), y_id.data());
    tensor::PackedGemv(*permuted, x.data(), y_perm.data());
    for (int64_t p = 0; p < out; ++p) {
      EXPECT_EQ(y_perm[static_cast<size_t>(p)], y_id[static_cast<size_t>(perm[p])])
          << "tier " << tier << " packed position " << p;
    }
  }
}

TEST(Int4PackFormatTest, GemvStaysInsidePerGroupErrorBound) {
  const int64_t in = 80, out = 33;
  const Tensor w = MaskedWeight(in, out, 53);
  const Tensor x = RandomInput(1, in, 59, /*zero_prob=*/0.0f);
  const auto dense = tensor::PackWeights(w, WeightBackend::kDenseF32);
  const auto int4 = tensor::PackWeights(w, WeightBackend::kInt4);
  std::vector<float> y_ref(static_cast<size_t>(out), 0.0f);
  std::vector<float> y_q(static_cast<size_t>(out), 0.0f);
  tensor::PackedGemv(*dense, x.data(), y_ref.data());
  tensor::PackedGemv(*int4, x.data(), y_q.data());
  // |y_q[j] - y[j]| <= 0.5 * sum_k |x_k| * s[g(k), j]  (+ tiny fp slack):
  // each weight is off by at most half a quantization step of its group.
  for (int64_t j = 0; j < out; ++j) {
    double bound = 0.0;
    for (int64_t k = 0; k < in; ++k) {
      const float gs =
          int4->group_scales[static_cast<size_t>((k / tensor::kInt4GroupSize) * out + j)];
      bound += 0.5 * std::fabs(static_cast<double>(x.data()[k])) * gs;
    }
    EXPECT_NEAR(y_q[static_cast<size_t>(j)], y_ref[static_cast<size_t>(j)],
                bound * 1.001 + 1e-5)
        << "output " << j;
  }
}

// ----- end-to-end accuracy guard --------------------------------------------

TEST(Int4AccuracyTest, MedianQErrorWithinOnePercentOfFp32) {
  const data::Table t = data::CensusLike(600, 11);
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

  auto median_under = [&](WeightBackend b) {
    model.SetInferenceBackend(b);
    const std::vector<double> sels = model.EstimateSelectivityBatch(queries);
    std::vector<double> errs;
    errs.reserve(sels.size());
    for (size_t i = 0; i < sels.size(); ++i) {
      const double est = std::max(1.0, sels[i] * static_cast<double>(rows));
      errs.push_back(query::QError(est, static_cast<double>(wl[i].cardinality)));
    }
    return Median(errs);
  };
  const double median_fp32 = median_under(WeightBackend::kDenseF32);
  const double median_int4 = median_under(WeightBackend::kInt4);
  EXPECT_LE(std::fabs(median_int4 - median_fp32), 0.01 * median_fp32)
      << "int4 median " << median_int4 << " vs fp32 " << median_fp32;
}

}  // namespace
}  // namespace duet
