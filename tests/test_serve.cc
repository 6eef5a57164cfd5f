// Serving engine + compiled-plan cache: sharded estimation must equal the
// single-thread batch path bitwise across ragged batch sizes and process
// pool sizes (also when called from inside a pool worker); the plan (which
// caches the packed W o M) must be invalidated by optimizer steps,
// fine-tuning and checkpoint loads; async Submit/Wait must return each
// query's own estimate regardless of micro-batch grouping.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/duet_model.h"
#include "core/finetune.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "nn/made.h"
#include "query/workload.h"
#include "serve/serving_engine.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using query::Query;

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

TEST(ServingEngineTest, ShardedMatchesSingleThreadBitwise) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> all = MakeQueries(t, 130);

  // Ragged sizes hit the 1-query, sub-min_shard, uneven-split and
  // larger-than-workers regimes. The shard count follows the process pool
  // size, so each pool size is its own sharding.
  const std::vector<int> sizes = {1, 2, 3, 7, 16, 33, 64, 65, 130};
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(workers);
    serve::ServingOptions sopt;
    sopt.min_shard = 4;
    serve::ServingEngine engine(est, sopt);
    uint64_t expected_shards = 0;
    for (int size : sizes) {
      expected_shards += static_cast<uint64_t>(
          std::min<int>(static_cast<int>(workers), std::max(1, size / 4)));
      const std::vector<Query> batch(all.begin(), all.begin() + size);
      const std::vector<double> reference = est.EstimateSelectivityBatch(batch);
      const std::vector<double> sharded = engine.EstimateBatch(batch);
      ASSERT_EQ(sharded.size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        // Bitwise: sharding must not perturb numerics at all.
        EXPECT_EQ(sharded[i], reference[i])
            << "workers=" << workers << " size=" << size << " query=" << i;
      }
    }
    // Every estimate ran through the compiled plan, and the engine reports
    // its telemetry and footprint.
    const serve::ServingStats stats = engine.stats();
    EXPECT_EQ(stats.shards, expected_shards) << "workers=" << workers;
    EXPECT_GT(stats.plan_cache_hits, 0u);
    EXPECT_GT(stats.plan_compile_micros, 0u);
    EXPECT_GT(stats.packed_weight_bytes, 0u);
    EXPECT_EQ(stats.packed_weight_bytes, model.CachedBytes());
  }
  ThreadPool::SetGlobalThreads(0);
}

// A sync EstimateBatch issued from inside a pool worker runs its shards
// inline on that worker: it must neither deadlock (every worker may be
// inside such a call at once) nor change any answer.
TEST(ServingEngineTest, EstimateBatchInsideParallelForIsInlineAndBitwise) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 40);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);

  ThreadPool::SetGlobalThreads(2);
  {
    serve::ServingOptions sopt;
    sopt.min_shard = 4;
    serve::ServingEngine engine(est, sopt);
    constexpr int64_t kCallers = 8;
    std::vector<std::vector<double>> got(kCallers);
    ParallelFor(
        0, kCallers,
        [&](int64_t c) { got[static_cast<size_t>(c)] = engine.EstimateBatch(queries); },
        /*parallel=*/true, /*grain=*/1);
    for (int64_t c = 0; c < kCallers; ++c) {
      EXPECT_EQ(got[static_cast<size_t>(c)], reference) << "caller " << c;
    }
    EXPECT_EQ(engine.stats().sync_batches, static_cast<uint64_t>(kCallers));
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(ServingEngineTest, ConcurrentSyncCallersDoNotInterfere) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> qa = MakeQueries(t, 40, 1);
  const std::vector<Query> qb = MakeQueries(t, 23, 2);
  const std::vector<double> ra = est.EstimateSelectivityBatch(qa);
  const std::vector<double> rb = est.EstimateSelectivityBatch(qb);

  ThreadPool::SetGlobalThreads(4);
  {
    serve::ServingOptions sopt;
    sopt.min_shard = 2;
    serve::ServingEngine engine(est, sopt);
    std::vector<double> got_a, got_b;
    std::thread ta([&] { got_a = engine.EstimateBatch(qa); });
    std::thread tb([&] { got_b = engine.EstimateBatch(qb); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, ra);
    EXPECT_EQ(got_b, rb);
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST(ServingEngineTest, AsyncSubmitWaitReturnsPerQueryResults) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);

  // Tiny max_batch forces several micro-batches; a long max_wait exercises
  // the size trigger, and destruction drains whatever is left.
  serve::ServingOptions sopt;
  sopt.max_batch = 4;
  sopt.max_wait_us = 50 * 1000;
  const std::vector<Query> queries = MakeQueries(t, 30);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);

  serve::ServingEngine engine(est, sopt);
  std::vector<serve::ServingEngine::Future> futures;
  futures.reserve(queries.size());
  for (const Query& q : queries) futures.push_back(engine.Submit(q));
  // Wait out of submission order: results must be tied to the query, not to
  // dispatch position.
  for (size_t i = futures.size(); i-- > 0;) {
    EXPECT_EQ(futures[i].Wait(), reference[i]) << "query " << i;
  }
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GE(stats.micro_batches, queries.size() / 4);  // max_batch == 4
  EXPECT_LE(stats.largest_micro_batch, 4);
}

// Cross-request fusion A/B: fused (max_batch 8) and unfused (max_batch 1:
// every query resolved and served alone) dispatch must return bitwise
// identical per-request results (kernel batch invariance — fusion changes
// throughput, never answers), and only the fused engine may count fused
// groups.
TEST(ServingEngineTest, FusionIsBitwiseInvariantAndCounted) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 24);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);

  for (const bool fuse : {true, false}) {
    serve::ServingOptions sopt;
    sopt.max_batch = fuse ? 8 : 1;
    sopt.max_wait_us = 50 * 1000;
    serve::ServingEngine engine(est, sopt);
    std::vector<serve::ServingEngine::Future> futures;
    futures.reserve(queries.size());
    for (const Query& q : queries) futures.push_back(engine.Submit(q));
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].Wait(), reference[i]) << "fuse=" << fuse << " query " << i;
    }
    const serve::ServingStats stats = engine.stats();
    if (fuse) {
      // 24 concurrent submissions into max_batch=8 micro-batches: at least
      // one dispatch group must have coalesced >= 2 requests.
      EXPECT_GT(stats.fused_requests, 0u);
      EXPECT_GE(stats.fusion_batch_p50, 2.0);
    } else {
      EXPECT_EQ(stats.fused_requests, 0u) << "unfused arm must not coalesce";
      EXPECT_EQ(stats.fusion_batch_p50, 0.0);
    }
  }
}

TEST(ServingEngineTest, DestructorDrainsPendingFutures) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 9);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);

  std::vector<serve::ServingEngine::Future> futures;
  {
    serve::ServingOptions sopt;
    sopt.max_batch = 64;          // never reached by 9 queries
    sopt.max_wait_us = 10 * 1000 * 1000;  // nor the deadline: dtor must drain
    serve::ServingEngine engine(est, sopt);
    for (const Query& q : queries) futures.push_back(engine.Submit(q));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].Ready()) << "future " << i << " not drained";
    EXPECT_EQ(futures[i].Wait(), reference[i]);
  }
}

TEST(ServingEngineTest, DestructorDrainRacesDeadlineExpiry) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 24);

  // Deadlines land mid-teardown: some entries expire while the destructor
  // drains, some are still live. Every future must complete either way —
  // expired ones flagged, live ones with a real estimate — and nothing may
  // hang or crash regardless of which side of the race each entry lands on.
  for (int round = 0; round < 5; ++round) {
    std::vector<serve::ServingEngine::Future> futures;
    {
      serve::ServingOptions sopt;
      sopt.max_batch = 64;                 // size trigger never fires
      sopt.max_wait_us = 10 * 1000 * 1000; // dtor does the dispatch
      serve::ServingEngine engine(est, sopt);
      for (size_t i = 0; i < queries.size(); ++i) {
        // Mix of already-expired, racing (~dtor latency), and generous.
        const int64_t deadline = i % 3 == 0 ? 1 : (i % 3 == 1 ? 300 : 10 * 1000 * 1000);
        futures.push_back(engine.Submit(queries[i], deadline));
      }
    }
    const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
    for (size_t i = 0; i < futures.size(); ++i) {
      ASSERT_TRUE(futures[i].Ready()) << "round " << round << " future " << i;
      const serve::Estimate e = futures[i].Result();
      if (!e.deadline_expired) {
        EXPECT_EQ(e.selectivity, reference[i]) << "round " << round << " query " << i;
      }
    }
  }
}

TEST(ServingEngineTest, DestructorDrainsShedAndQueuedEntriesTogether) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  const std::vector<Query> queries = MakeQueries(t, 12);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);

  std::vector<serve::ServingEngine::Future> futures;
  uint64_t shed = 0;
  {
    serve::ServingOptions sopt;
    sopt.max_queue = 3;                  // most submissions shed immediately
    sopt.max_batch = 64;
    sopt.max_wait_us = 10 * 1000 * 1000;
    serve::ServingEngine engine(est, sopt);
    for (const Query& q : queries) futures.push_back(engine.Submit(q));
    shed = engine.stats().shed;
  }
  EXPECT_GE(shed, queries.size() - 3);
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].Ready()) << "future " << i;
    const serve::Estimate e = futures[i].Result();
    if (e.shed) {
      EXPECT_TRUE(e.degraded());  // no fallback attached: flagged, sel 0.0
    } else {
      EXPECT_EQ(e.selectivity, reference[i]) << "query " << i;
    }
  }
}

// The cache unit test: a MADE forward with gradients disabled serves W o M
// packed in its compiled plan, and an optimizer step must invalidate the
// plan so the next no-grad forward matches the tracked path bitwise.
TEST(MaskedWeightCacheTest, InvalidatedByOptimizerStep) {
  Rng rng(5);
  nn::MadeOptions mopt;
  mopt.input_widths = {2, 3, 1};
  mopt.output_widths = {2, 2, 3};
  mopt.hidden_sizes = {8};
  nn::Made made(mopt, rng);
  tensor::Tensor x = tensor::Tensor::Zeros({2, made.input_dim()});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;

  auto no_grad_forward = [&] {
    tensor::NoGradScope scope;
    return made.Forward(x).Clone();
  };
  auto tracked_forward = [&] { return made.Forward(x).Clone(); };

  // Populate the cache, then check cached == tracked bitwise.
  const tensor::Tensor before_cached = no_grad_forward();
  const tensor::Tensor before_tracked = tracked_forward();
  ASSERT_EQ(before_cached.value_vector(), before_tracked.value_vector());

  // One SGD step with a synthetic gradient changes W (and bumps the global
  // parameter version).
  {
    tensor::Sgd sgd({made.parameters()}, /*lr=*/0.1f);
    for (const tensor::Tensor& p : made.parameters()) {
      tensor::Tensor param = p;  // shared handle; grads live on the impl
      float* g = param.grad_data();
      for (int64_t i = 0; i < param.numel(); ++i) g[i] = 1.0f;
    }
    sgd.Step();
  }

  const tensor::Tensor after_cached = no_grad_forward();
  const tensor::Tensor after_tracked = tracked_forward();
  EXPECT_NE(after_cached.value_vector(), before_cached.value_vector())
      << "cache served stale weights after an optimizer step";
  EXPECT_EQ(after_cached.value_vector(), after_tracked.value_vector())
      << "cached inference path diverged from the tracked reference";
}

// End-to-end: estimate -> fine-tune -> estimate must reflect the new
// weights, and the post-finetune estimates must be identical to what a
// cache-cold copy of the model (checkpoint round-trip) computes.
TEST(MaskedWeightCacheTest, EstimatesReflectFineTunedWeights) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  opt.residual = true;
  core::DuetModel model(t, opt);
  const std::vector<Query> queries = MakeQueries(t, 24);

  const std::vector<double> before = model.EstimateSelectivityBatch(queries);

  // A couple of training epochs move every layer's weights.
  core::TrainOptions topt;
  topt.epochs = 2;
  topt.batch_size = 128;
  core::DuetTrainer(model, topt).Train();

  const std::vector<double> after = model.EstimateSelectivityBatch(queries);
  EXPECT_NE(after, before) << "estimates unchanged after training: stale cache?";

  // Cache-cold reference: round-trip the weights into a fresh model whose
  // caches were never populated with the old weights.
  std::stringstream buf;
  {
    BinaryWriter w(buf);
    model.Save(w);
  }
  core::DuetModel fresh(t, opt);
  {
    BinaryReader r(buf);
    fresh.Load(r);
  }
  const std::vector<double> cold = fresh.EstimateSelectivityBatch(queries);
  ASSERT_EQ(cold.size(), after.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], cold[i]) << "query " << i;
  }
}

// Serving through the engine after a fine-tuning round sees the new
// weights (the ISSUE's estimate -> finetune -> estimate flow, sharded).
TEST(MaskedWeightCacheTest, ServingSeesFineTunedWeights) {
  const data::Table t = SmallTable();
  core::DuetModelOptions opt;
  opt.hidden_sizes = {32, 32};
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  serve::ServingOptions sopt;
  sopt.min_shard = 4;
  serve::ServingEngine engine(est, sopt);

  query::WorkloadSpec spec;
  spec.num_queries = 40;
  spec.seed = 13;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  std::vector<Query> queries;
  for (const auto& lq : wl) queries.push_back(lq.query);

  const std::vector<double> before = engine.EstimateBatch(queries);

  core::FineTuneOptions fopt;
  fopt.qerror_threshold = 1.01;  // collect (almost) everything at this scale
  fopt.max_queries = 32;
  fopt.epochs = 1;
  // Serving is quiesced here: no estimates in flight during the tuning step.
  const core::FineTuneReport report = core::FineTune(model, wl, fopt);
  ASSERT_FALSE(report.collected.empty()) << "nothing collected: test premise broken";

  const std::vector<double> after = engine.EstimateBatch(queries);
  EXPECT_NE(after, before) << "sharded estimates unchanged after fine-tuning";
  // And the sharded result still equals the single-thread batch path.
  EXPECT_EQ(after, est.EstimateSelectivityBatch(queries));
}

}  // namespace
}  // namespace duet
