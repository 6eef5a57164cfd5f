// Tests for the Duet core: encoders, the Algorithm 1 sampler invariants,
// Algorithm 3 estimation semantics (determinism, wildcard telescoping,
// empty ranges), and training behaviour (loss decreases; hybrid runs; the
// estimator beats the independence baseline on a correlated table).
#include <cmath>
#include <sstream>

#include "common/serialize.h"
#include "common/stats.h"

#include "baselines/traditional/independence.h"
#include "core/duet_model.h"
#include "core/encoding.h"
#include "core/finetune.h"
#include "core/sampler.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/estimator.h"
#include "query/evaluator.h"
#include "query/workload.h"

namespace duet::core {
namespace {

using query::PredOp;
using query::Query;

data::Table SmallTable(int64_t rows = 1500, uint64_t seed = 5) {
  return data::CensusLike(rows, seed);
}

// ---------- encoding ----------

TEST(EncodingTest, BinaryWidths) {
  EXPECT_EQ(BinaryWidth(2), 1);
  EXPECT_EQ(BinaryWidth(3), 2);
  EXPECT_EQ(BinaryWidth(4), 2);
  EXPECT_EQ(BinaryWidth(5), 3);
  EXPECT_EQ(BinaryWidth(1024), 10);
  EXPECT_EQ(BinaryWidth(1025), 11);
}

TEST(EncodingTest, PolicySelectsOneHotVsBinary) {
  data::Table t = SmallTable();
  EncodingOptions opt;
  opt.one_hot_max_ndv = 16;
  ColumnValueEncoder enc(t, opt);
  for (int c = 0; c < t.num_columns(); ++c) {
    if (t.column(c).ndv() <= 16) {
      EXPECT_EQ(enc.encoding_kind(c), ValueEncoding::kOneHot);
      EXPECT_EQ(enc.value_width(c), t.column(c).ndv());
    } else {
      EXPECT_EQ(enc.encoding_kind(c), ValueEncoding::kBinary);
      EXPECT_EQ(enc.value_width(c), BinaryWidth(t.column(c).ndv()));
    }
  }
}

TEST(EncodingTest, BinaryBitsRoundTrip) {
  data::Table t = SmallTable();
  EncodingOptions opt;
  opt.one_hot_max_ndv = 2;  // force binary nearly everywhere
  ColumnValueEncoder enc(t, opt);
  const int col = t.LargestNdvColumn();
  const int64_t w = enc.value_width(col);
  for (int32_t code : {0, 1, t.column(col).ndv() - 1}) {
    std::vector<float> buf(static_cast<size_t>(w), 0.0f);
    enc.EncodeValue(col, code, buf.data());
    int32_t decoded = 0;
    for (int64_t b = 0; b < w; ++b) {
      if (buf[static_cast<size_t>(b)] > 0.5f) decoded |= 1 << b;
    }
    EXPECT_EQ(decoded, code);
  }
}

TEST(EncodingTest, CodeMatrixRowsMatchEncodeValue) {
  data::Table t = SmallTable();
  EncodingOptions opt;
  ColumnValueEncoder enc(t, opt);
  const int col = 0;
  tensor::Tensor m = enc.CodeMatrix(col);
  ASSERT_EQ(m.dim(0), t.column(col).ndv());
  std::vector<float> buf(static_cast<size_t>(enc.value_width(col)), 0.0f);
  enc.EncodeValue(col, 1, buf.data());
  for (int64_t j = 0; j < enc.value_width(col); ++j) {
    EXPECT_FLOAT_EQ(m.data()[1 * enc.value_width(col) + j], buf[static_cast<size_t>(j)]);
  }
}

TEST(EncodingTest, DuetBlockLayout) {
  data::Table t = SmallTable();
  EncodingOptions opt;
  DuetInputEncoder enc(t, opt);
  int64_t total = 0;
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(enc.block_offset(c), total);
    EXPECT_EQ(enc.block_width(c), enc.values().value_width(c) + query::kNumPredOps);
    total += enc.block_width(c);
  }
  EXPECT_EQ(enc.total_width(), total);
}

TEST(EncodingTest, DuetPredicateSetsOneOpBit) {
  data::Table t = SmallTable();
  DuetInputEncoder enc(t, EncodingOptions{});
  std::vector<float> buf(static_cast<size_t>(enc.block_width(0)), 0.0f);
  enc.EncodePredicate(0, PredOp::kGe, 2, buf.data());
  float op_sum = 0.0f;
  for (int i = 0; i < query::kNumPredOps; ++i) {
    op_sum += buf[static_cast<size_t>(enc.values().value_width(0) + i)];
  }
  EXPECT_FLOAT_EQ(op_sum, 1.0f);
  EXPECT_FLOAT_EQ(buf[static_cast<size_t>(enc.values().value_width(0) +
                                          static_cast<int>(PredOp::kGe))],
                  1.0f);
}

TEST(EncodingTest, NaruPresentFlagDisambiguatesWildcard) {
  data::Table t = SmallTable();
  NaruInputEncoder enc(t, EncodingOptions{});
  std::vector<float> buf(static_cast<size_t>(enc.block_width(0)), 0.0f);
  enc.EncodeValue(0, 0, buf.data());
  // Code 0 in binary is all-zero bits; the present flag distinguishes it
  // from a wildcard (all-zero block).
  EXPECT_FLOAT_EQ(buf[0], 1.0f);
}

TEST(EncodingTest, EmbeddingKindUsesFixedCodebook) {
  data::Table t = SmallTable();
  EncodingOptions opt;
  opt.one_hot_max_ndv = 4;
  opt.large_encoding = ValueEncoding::kEmbedding;
  opt.embedding_dim = 8;
  ColumnValueEncoder enc(t, opt);
  const int col = t.LargestNdvColumn();
  ASSERT_EQ(enc.encoding_kind(col), ValueEncoding::kEmbedding);
  EXPECT_EQ(enc.value_width(col), 8);
  std::vector<float> a(8, 0.0f), b(8, 0.0f);
  enc.EncodeValue(col, 3, a.data());
  enc.EncodeValue(col, 3, b.data());
  EXPECT_EQ(a, b);  // deterministic codebook
}

// ---------- Algorithm 1 sampler ----------

bool AnchorSatisfies(PredOp op, int32_t anchor, int32_t value) {
  switch (op) {
    case PredOp::kEq: return anchor == value;
    case PredOp::kGt: return anchor > value;
    case PredOp::kLt: return anchor < value;
    case PredOp::kGe: return anchor >= value;
    case PredOp::kLe: return anchor <= value;
  }
  return false;
}

class SamplerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerPropertyTest, EveryPredicateIsSatisfiedByItsAnchor) {
  data::Table t = SmallTable(800, 3);
  SamplerOptions opt;
  opt.expand = 3;
  opt.wildcard_prob = 0.25;
  VirtualTupleSampler sampler(t, opt);
  std::vector<int64_t> anchors;
  Rng rng(GetParam());
  for (int i = 0; i < 64; ++i) {
    anchors.push_back(static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(t.num_rows()))));
  }
  const VirtualBatch vb = sampler.Sample(anchors, GetParam());
  EXPECT_EQ(vb.batch, 64 * 3);
  int predicates = 0;
  for (int64_t r = 0; r < vb.batch; ++r) {
    for (int c = 0; c < vb.num_columns; ++c) {
      const int8_t op = vb.op_at(r, c);
      if (op < 0) {
        EXPECT_EQ(vb.code_at(r, c), -1);  // wildcard slots carry no code
        continue;
      }
      ++predicates;
      const int32_t code = vb.code_at(r, c);
      ASSERT_GE(code, 0);
      ASSERT_LT(code, t.column(c).ndv());
      EXPECT_TRUE(AnchorSatisfies(static_cast<PredOp>(op), vb.label_at(r, c), code))
          << "op " << static_cast<int>(op) << " anchor " << vb.label_at(r, c) << " value code "
          << code;
    }
  }
  EXPECT_GT(predicates, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerPropertyTest, ::testing::Values(1, 2, 3, 4));

TEST(SamplerTest, DeterministicInSeed) {
  data::Table t = SmallTable(300, 2);
  VirtualTupleSampler sampler(t, SamplerOptions{});
  std::vector<int64_t> anchors = {0, 5, 10, 200};
  const VirtualBatch a = sampler.Sample(anchors, 77);
  const VirtualBatch b = sampler.Sample(anchors, 77);
  EXPECT_EQ(a.pred_codes, b.pred_codes);
  EXPECT_EQ(a.pred_ops, b.pred_ops);
  const VirtualBatch c = sampler.Sample(anchors, 78);
  EXPECT_NE(a.pred_codes, c.pred_codes);
}

TEST(SamplerTest, ParallelMatchesSerial) {
  data::Table t = SmallTable(500, 9);
  SamplerOptions par;
  par.parallel = true;
  SamplerOptions ser;
  ser.parallel = false;
  std::vector<int64_t> anchors;
  for (int64_t i = 0; i < 128; ++i) anchors.push_back(i);
  const VirtualBatch a = VirtualTupleSampler(t, par).Sample(anchors, 5);
  const VirtualBatch b = VirtualTupleSampler(t, ser).Sample(anchors, 5);
  EXPECT_EQ(a.pred_codes, b.pred_codes);
  EXPECT_EQ(a.pred_ops, b.pred_ops);
}

TEST(SamplerTest, ExpandReplicatesAnchors) {
  data::Table t = SmallTable(200, 1);
  SamplerOptions opt;
  opt.expand = 4;
  VirtualTupleSampler sampler(t, opt);
  const VirtualBatch vb = sampler.Sample({3, 9}, 1);
  EXPECT_EQ(vb.batch, 8);
  // Replica-major layout: labels repeat every bs rows.
  for (int c = 0; c < vb.num_columns; ++c) {
    EXPECT_EQ(vb.label_at(0, c), vb.label_at(2, c));
    EXPECT_EQ(vb.label_at(1, c), vb.label_at(3, c));
  }
}

TEST(SamplerTest, OpsAreBalancedAcrossSlices) {
  data::Table t = SmallTable(1000, 8);
  SamplerOptions opt;
  opt.expand = 1;
  opt.wildcard_prob = 0.0;
  VirtualTupleSampler sampler(t, opt);
  std::vector<int64_t> anchors;
  for (int64_t i = 0; i < 500; ++i) anchors.push_back(i);
  const VirtualBatch vb = sampler.Sample(anchors, 3);
  // Column with a large domain: all five ops should be nearly feasible
  // everywhere, and the slice trick assigns ~1/5 of the batch to each.
  const int col = t.LargestNdvColumn();
  std::vector<int> counts(query::kNumPredOps, 0);
  for (int64_t r = 0; r < vb.batch; ++r) {
    const int8_t op = vb.op_at(r, col);
    if (op >= 0) counts[static_cast<size_t>(op)]++;
  }
  for (int k = 0; k < query::kNumPredOps; ++k) {
    EXPECT_GT(counts[static_cast<size_t>(k)], 40) << "op " << k << " starved";
  }
}

// ---------- Algorithm 3 estimation ----------

TEST(DuetEstimationTest, UntrainedModelStillNormalizes) {
  data::Table t = SmallTable(400, 2);
  DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  DuetModel model(t, opt);
  Query q;  // no predicates
  EXPECT_NEAR(model.EstimateSelectivity(q), 1.0, 1e-6);
}

TEST(DuetEstimationTest, EmptyRangeGivesZero) {
  data::Table t = SmallTable(400, 2);
  DuetModelOptions opt;
  opt.hidden_sizes = {16};
  DuetModel model(t, opt);
  Query q;
  q.predicates.push_back({0, PredOp::kLt, t.column(0).Value(0)});  // nothing below min
  EXPECT_DOUBLE_EQ(model.EstimateSelectivity(q), 0.0);
}

TEST(DuetEstimationTest, DeterministicAcrossCalls) {
  data::Table t = SmallTable(400, 2);
  DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  DuetModel model(t, opt);
  Query q;
  q.predicates.push_back({1, PredOp::kGe, t.column(1).Value(1)});
  q.predicates.push_back({3, PredOp::kLe, t.column(3).Value(2)});
  const double a = model.EstimateSelectivity(q);
  const double b = model.EstimateSelectivity(q);
  EXPECT_EQ(a, b);  // bit-identical: Problem 4 (instability) removed
}

TEST(DuetEstimationTest, BatchMatchesSingle) {
  data::Table t = SmallTable(600, 4);
  DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  DuetModel model(t, opt);
  query::WorkloadSpec spec;
  spec.num_queries = 32;
  spec.seed = 6;
  query::WorkloadGenerator gen(t, spec);
  Rng rng(6);
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(gen.GenerateQuery(rng));
  const auto batch = model.EstimateSelectivityBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(batch[i], model.EstimateSelectivity(queries[i]), 1e-9);
  }
}

TEST(DuetEstimationTest, DifferentiablePathMatchesRawPath) {
  data::Table t = SmallTable(500, 7);
  DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  DuetModel model(t, opt);
  query::WorkloadSpec spec;
  spec.num_queries = 16;
  spec.seed = 4;
  query::WorkloadGenerator gen(t, spec);
  Rng rng(4);
  std::vector<Query> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(gen.GenerateQuery(rng));
  tensor::Tensor sel = model.SelectivityBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(sel.data()[static_cast<int64_t>(i)]),
                model.EstimateSelectivity(queries[i]), 5e-4);
  }
}

TEST(DuetEstimationTest, MultiPredicateColumnIsCondensedInDirectMode) {
  // Direct mode condenses a two-sided range into one conditioning predicate;
  // the zero-out mask stays exact, so a range covering the full domain must
  // behave like a wildcard mask-wise (factor from the learned head only).
  data::Table t = SmallTable(300, 2);
  DuetModelOptions opt;
  opt.hidden_sizes = {16};
  DuetModel model(t, opt);
  Query q;
  q.predicates.push_back({0, PredOp::kGe, t.column(0).Value(0)});
  q.predicates.push_back({0, PredOp::kLe, t.column(0).Value(1)});
  const double sel = model.EstimateSelectivity(q);
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0 + 1e-6);
  // Contradictory two-sided range -> empty mask -> exactly 0.
  Query contradiction;
  contradiction.predicates.push_back({0, PredOp::kGe, t.column(0).Value(2)});
  contradiction.predicates.push_back({0, PredOp::kLe, t.column(0).Value(0)});
  EXPECT_DOUBLE_EQ(model.EstimateSelectivity(contradiction), 0.0);
}

// ---------- training ----------

TEST(DuetTrainingTest, DataLossDecreases) {
  data::Table t = SmallTable(1200, 11);
  DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  mopt.residual = true;
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.epochs = 8;
  topt.batch_size = 128;
  topt.expand = 2;
  DuetTrainer trainer(model, topt);
  const auto history = trainer.Train();
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().data_loss, history.front().data_loss * 0.9);
  for (const auto& e : history) EXPECT_TRUE(std::isfinite(e.data_loss));
}

TEST(DuetTrainingTest, TrainedModelBeatsIndependenceOnCorrelatedData) {
  // Strongly correlated two-column table: AVI is systematically wrong,
  // a trained Duet should not be.
  data::SyntheticSpec spec;
  spec.name = "corr";
  spec.rows = 3000;
  spec.num_latent = 1;
  spec.latent_cardinality = 12;
  spec.seed = 10;
  for (int i = 0; i < 3; ++i) {
    data::ColumnSpec cs;
    cs.ndv = 12;
    cs.zipf_s = 0.7;
    cs.correlation = 0.9;
    cs.latent = 0;
    spec.columns.push_back(cs);
  }
  data::Table t = data::GenerateSynthetic(spec);

  DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.epochs = 25;
  topt.batch_size = 256;
  topt.learning_rate = 3e-3f;
  DuetTrainer trainer(model, topt);
  trainer.Train();

  // Anchored equality pairs on the two correlated columns: AVI multiplies
  // marginals and misses the correlation factor; Duet must learn the joint.
  query::Workload wl;
  query::ExactEvaluator ev(t);
  Rng rng(1234);
  for (int i = 0; i < 120; ++i) {
    const int64_t row = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(t.num_rows())));
    Query q;
    q.predicates.push_back({0, PredOp::kEq, t.column(0).Value(t.code(row, 0))});
    q.predicates.push_back({1, PredOp::kEq, t.column(1).Value(t.code(row, 1))});
    wl.push_back({q, ev.Count(q)});
  }

  DuetEstimator duet(model);
  baselines::IndependenceEstimator indep(t);
  const auto duet_err = query::EvaluateQErrors(duet, wl, t.num_rows());
  const auto indep_err = query::EvaluateQErrors(indep, wl, t.num_rows());
  const double duet_med = duet::Percentile(duet_err, 50);
  const double indep_med = duet::Percentile(indep_err, 50);
  EXPECT_LT(duet_med, indep_med) << "Duet median " << duet_med << " vs AVI " << indep_med;
  EXPECT_LT(duet_med, 3.0);
}

TEST(DuetTrainingTest, HybridTrainingRunsAndReportsQueryLoss) {
  data::Table t = SmallTable(1000, 12);
  query::WorkloadSpec wspec;
  wspec.num_queries = 200;
  wspec.seed = 42;
  wspec.gamma_num_predicates = true;
  const query::Workload train_wl = query::WorkloadGenerator(t, wspec).Generate();

  DuetModelOptions mopt;
  mopt.hidden_sizes = {32, 32};
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.epochs = 3;
  topt.batch_size = 128;
  topt.lambda = 0.1f;
  topt.train_workload = &train_wl;
  DuetTrainer trainer(model, topt);
  const auto history = trainer.Train();
  for (const auto& e : history) {
    EXPECT_GT(e.query_loss, 0.0);
    EXPECT_TRUE(std::isfinite(e.query_loss));
    EXPECT_GT(e.raw_qerror, 0.0);
  }
}

TEST(DuetTrainingTest, ThroughputIsReported) {
  data::Table t = SmallTable(600, 13);
  DuetModelOptions mopt;
  mopt.hidden_sizes = {16};
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 100;
  DuetTrainer trainer(model, topt);
  const auto stats = trainer.TrainEpoch(0);
  EXPECT_GT(stats.tuples_per_second, 0.0);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(DuetTrainingTest, HybridEpochReusesStepBuffers) {
  // Every step of a hybrid epoch has the same shapes, so once one epoch has
  // warmed the arena, the next one draws every activation and gradient
  // buffer from it. The outer scope keeps the arena alive across the two
  // epochs, which each open (and would otherwise free) their own.
  data::Table t = SmallTable(600, 14);
  query::WorkloadSpec wspec;
  wspec.num_queries = 64;
  wspec.seed = 7;
  const query::Workload train_wl = query::WorkloadGenerator(t, wspec).Generate();
  DuetModelOptions mopt;
  mopt.hidden_sizes = {32, 32};
  mopt.residual = true;
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.batch_size = 100;
  topt.train_workload = &train_wl;
  DuetTrainer trainer(model, topt);
  tensor::TrainingScope scope;
  trainer.TrainEpoch(0);
  tensor::TensorArena::ResetStats();
  trainer.TrainEpoch(1);
  EXPECT_EQ(tensor::TensorArena::stats().fresh_allocs, 0u);
  EXPECT_GT(tensor::TensorArena::stats().reuses, 0u);
}

/// FNV-1a over the bytes of every parameter, in parameters() order.
uint64_t ParameterDigest(const DuetModel& model) {
  uint64_t h = kFnv1a64Basis;
  for (const tensor::Tensor& p : model.parameters()) {
    h = Fnv1a64Mix(h, Fnv1a64(p.data(), static_cast<size_t>(p.numel()) * sizeof(float)));
  }
  return h;
}

// Training is bitwise-reproducible (docs/architecture.md §1): a few hybrid
// steps and one online fine-tune round on a fixed-seed table must land on
// pinned parameter bits, on every ISA tier and thread count. A change to a
// training kernel that reorders any sum moves the digests; one that only
// skips exact-zero products or structurally masked terms (or stops copying
// operands) does not. Returns the digests after training and after the round.
std::pair<uint64_t, uint64_t> FixtureDigests(const std::vector<int64_t>& hidden_sizes,
                                             bool residual) {
  data::Table t = SmallTable(800, 21);
  query::WorkloadSpec wspec;
  wspec.num_queries = 96;
  wspec.seed = 23;
  const query::Workload train_wl = query::WorkloadGenerator(t, wspec).Generate();
  wspec.seed = 29;
  const query::Workload feedback = query::WorkloadGenerator(t, wspec).Generate();
  wspec.num_queries = 32;
  wspec.seed = 31;
  const query::Workload holdout = query::WorkloadGenerator(t, wspec).Generate();

  DuetModelOptions mopt;
  mopt.hidden_sizes = hidden_sizes;
  mopt.residual = residual;
  mopt.seed = 37;
  DuetModel model(t, mopt);
  TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 128;
  topt.max_rows_per_epoch = 512;
  topt.seed = 41;
  topt.train_workload = &train_wl;
  DuetTrainer(model, topt).Train();
  const uint64_t trained = ParameterDigest(model);

  OnlineUpdateOptions uopt;
  uopt.finetune.qerror_threshold = 1.5;
  uopt.finetune.max_anchor_rows = 256;
  const OnlineUpdateResult tuned = CloneAndFineTune(model, feedback, holdout, uopt);
  EXPECT_FALSE(tuned.report.collected.empty());
  return {trained, ParameterDigest(*tuned.model)};
}

#if defined(DUET_NATIVE_ARCH_BUILD) || !defined(__x86_64__)
#define DUET_SKIP_UNLESS_PORTABLE_X86()                                                   \
  GTEST_SKIP() << "the pinned bits are the portable x86-64 build's: -march=native "       \
                  "and every aarch64 build let the compiler contract mul+add into "       \
                  "FMA outside the kernels, so they train to their own bits"
#else
#define DUET_SKIP_UNLESS_PORTABLE_X86() (void)0
#endif

TEST(DuetTrainingTest, FixtureDigestIsPinned) {
  DUET_SKIP_UNLESS_PORTABLE_X86();
  const auto [trained, tuned] = FixtureDigests({64, 64}, /*residual=*/true);
  EXPECT_EQ(trained, 0x1d3f73361e104738ULL) << std::hex << trained;
  EXPECT_EQ(tuned, 0x131609bd6fc9d012ULL) << std::hex << tuned;
}

TEST(DuetTrainingTest, NonResidualFixtureDigestIsPinned) {
  // A plain masked MLP whose widths are not multiples of 16, so every masked
  // layer has ragged column tiles and its own mask rule (input blocks into
  // the >= rule, hidden into hidden, the strict output rule).
  DUET_SKIP_UNLESS_PORTABLE_X86();
  const auto [trained, tuned] = FixtureDigests({72, 40}, /*residual=*/false);
  EXPECT_EQ(trained, 0x6edafc877a867adaULL) << std::hex << trained;
  EXPECT_EQ(tuned, 0x94779e9d70dc69a1ULL) << std::hex << tuned;
}

TEST(DuetModelTest, SaveLoadPreservesEstimates) {
  data::Table t = SmallTable(500, 14);
  DuetModelOptions mopt;
  mopt.hidden_sizes = {32};
  DuetModel a(t, mopt);
  TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 128;
  DuetTrainer(a, topt).Train();

  std::stringstream buf;
  BinaryWriter w(buf);
  a.Save(w);
  DuetModelOptions mopt2 = mopt;
  mopt2.seed = 999;  // different init, then overwritten by Load
  DuetModel b(t, mopt2);
  BinaryReader r(buf);
  b.Load(r);

  Query q;
  q.predicates.push_back({2, PredOp::kLe, t.column(2).Value(t.column(2).ndv() / 2)});
  EXPECT_DOUBLE_EQ(a.EstimateSelectivity(q), b.EstimateSelectivity(q));
}

TEST(DuetModelTest, PhaseTimesAccumulate) {
  data::Table t = SmallTable(300, 15);
  DuetModelOptions mopt;
  mopt.hidden_sizes = {16};
  DuetModel model(t, mopt);
  model.phase_times().Clear();
  Query q;
  q.predicates.push_back({0, PredOp::kGe, t.column(0).Value(0)});
  model.EstimateSelectivity(q);
  EXPECT_GT(model.phase_times().total_ms(), 0.0);
}

}  // namespace
}  // namespace duet::core
