// Resilience suite (`ctest -L resilience`): every fault class in
// docs/resilience.md §6 — queue overflow, expired deadlines, neural forward
// failures (allocation, weight-pack, plan-compile), corrupt checkpoints,
// failed publishes, divergent fine-tune rounds — must produce a flagged
// degraded answer or a clean error, never a crash, hang, or silently wrong
// result. Faults are forced through serve::FaultInjector; every test disarms
// all points on entry and exit so a failed assertion cannot poison the next
// test. Runs under ASan/UBSan in CI like the rest of the suite.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/traditional/independence.h"
#include "core/checkpoint.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/workload.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"

namespace duet {
namespace {

using query::Query;
using serve::FaultInjector;
using serve::FaultPoint;

data::Table SmallTable() { return data::CensusLike(600, 11); }

core::DuetModelOptions SmallModelOptions() {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {24, 24};
  opt.residual = true;
  return opt;
}

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

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::Enabled()) {
      GTEST_SKIP() << "built with -DDUET_FAULT_INJECTION=OFF";
    }
    FaultInjector::DisarmAll();
  }
  void TearDown() override { FaultInjector::DisarmAll(); }
};

// ---- admission control: queue overflow sheds, flagged, never blocks ----

TEST_F(ResilienceTest, BoundedQueueShedsWithFlaggedFallbackAnswer) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);

  serve::ServingOptions sopt;
  sopt.max_queue = 2;
  sopt.max_batch = 64;                  // size trigger never fires
  sopt.max_wait_us = 200 * 1000;        // scheduler holds the queued entries
  serve::ServingEngine engine(est, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 8);
  std::vector<serve::ServingEngine::Future> futures;
  for (const Query& q : queries) futures.push_back(engine.Submit(q));

  // The queue held at most 2; everything beyond was shed with an immediate
  // fallback answer (Ready() before any dispatch could have happened).
  int shed = 0;
  for (auto& f : futures) {
    const serve::Estimate e = f.Result();
    if (e.shed) {
      ++shed;
      EXPECT_TRUE(e.fallback);
      EXPECT_TRUE(e.degraded());
    }
  }
  EXPECT_GE(shed, static_cast<int>(queries.size()) - 2);
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed));
  EXPECT_GE(stats.fallback_served, static_cast<uint64_t>(shed));
  EXPECT_LE(stats.queue_high_water, 2);
  // Shed answers come from the attached classical estimator, not a stub.
  const serve::Estimate last = futures.back().Result();
  ASSERT_TRUE(last.shed);
  EXPECT_EQ(last.selectivity, fallback.EstimateSelectivity(queries.back()));
}

TEST_F(ResilienceTest, ShedWithoutFallbackStillCompletesFlagged) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  serve::ServingOptions sopt;
  sopt.max_queue = 1;
  sopt.max_batch = 64;
  sopt.max_wait_us = 200 * 1000;
  serve::ServingEngine engine(est, sopt);  // no fallback attached

  auto first = engine.Submit(MakeQueries(t, 1)[0]);
  auto second = engine.Submit(MakeQueries(t, 1, 32)[0]);
  const serve::Estimate e = second.Result();
  EXPECT_TRUE(e.shed);
  EXPECT_EQ(e.selectivity, 0.0);  // documented no-fallback answer
  first.Wait();                   // drains cleanly
}

// ---- deadlines: expired work dropped before dispatch, flagged ----

TEST_F(ResilienceTest, ExpiredDeadlineServedByFallbackAndFlagged) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);

  serve::ServingOptions sopt;
  sopt.max_batch = 64;            // only the wait trigger dispatches
  sopt.max_wait_us = 30 * 1000;   // 30 ms: far beyond the 1 us deadlines
  serve::ServingEngine engine(est, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 6);
  std::vector<serve::ServingEngine::Future> futures;
  for (const Query& q : queries) {
    futures.push_back(engine.Submit(q, /*deadline_us=*/1));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::Estimate e = futures[i].Result();
    EXPECT_TRUE(e.deadline_expired) << "query " << i;
    EXPECT_TRUE(e.fallback) << "query " << i;
    EXPECT_EQ(e.selectivity, fallback.EstimateSelectivity(queries[i]));
  }
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_missed, queries.size());
  EXPECT_GE(stats.fallback_served, queries.size());
}

TEST_F(ResilienceTest, GenerousDeadlineIsNotDropped) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  serve::ServingOptions sopt;
  sopt.max_batch = 4;
  sopt.max_wait_us = 1000;
  serve::ServingEngine engine(est, sopt);

  const std::vector<Query> queries = MakeQueries(t, 8);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
  std::vector<serve::ServingEngine::Future> futures;
  for (const Query& q : queries) {
    futures.push_back(engine.Submit(q, /*deadline_us=*/10 * 1000 * 1000));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::Estimate e = futures[i].Result();
    EXPECT_FALSE(e.degraded()) << "query " << i;
    EXPECT_EQ(e.selectivity, reference[i]);
  }
  EXPECT_EQ(engine.stats().deadline_missed, 0u);
}

TEST_F(ResilienceTest, SyncLateResultIsFlaggedButStillAnswered) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  serve::ServingEngine engine(est, {});

  const std::vector<Query> queries = MakeQueries(t, 12);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
  // 1 us budget: the batch cannot finish in time, so every result is
  // flagged late — but the answers are still the real neural estimates.
  const std::vector<serve::Estimate> results =
      engine.EstimateBatchEx(queries, /*deadline_us=*/1);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].deadline_expired);
    EXPECT_FALSE(results[i].fallback);
    EXPECT_EQ(results[i].selectivity, reference[i]);
  }
  EXPECT_EQ(engine.stats().deadline_missed, queries.size());
}

// ---- neural forward failures degrade to the fallback, flagged ----

TEST_F(ResilienceTest, NeuralForwardFailureDegradesToFallback) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);
  serve::ServingOptions sopt;
  sopt.min_shard = 64;  // single shard: the whole batch degrades together
  serve::ServingEngine engine(est, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 5);
  FaultInjector::Arm(FaultPoint::kNeuralForward, 1);
  const std::vector<serve::Estimate> degraded = engine.EstimateBatchEx(queries);
  EXPECT_EQ(FaultInjector::fired(FaultPoint::kNeuralForward), 1u);
  for (size_t i = 0; i < degraded.size(); ++i) {
    EXPECT_TRUE(degraded[i].fallback) << "query " << i;
    EXPECT_EQ(degraded[i].selectivity, fallback.EstimateSelectivity(queries[i]));
  }
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.neural_failures, 1u);
  EXPECT_EQ(stats.fallback_served, queries.size());

  // The budget is spent: the next call is served neurally again.
  const std::vector<serve::Estimate> healthy = engine.EstimateBatchEx(queries);
  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
  for (size_t i = 0; i < healthy.size(); ++i) {
    EXPECT_FALSE(healthy[i].fallback);
    EXPECT_EQ(healthy[i].selectivity, reference[i]);
  }
}

// Infrastructure faults below the estimator (allocation, weight packing,
// plan compilation) surface inside the neural forward; each must degrade
// the dispatch, not crash the process.
TEST_F(ResilienceTest, InfrastructureFaultsDegradeNotCrash) {
  const data::Table t = SmallTable();
  baselines::IndependenceEstimator fallback(t);
  const std::vector<Query> queries = MakeQueries(t, 4);
  for (const FaultPoint point :
       {FaultPoint::kAllocation, FaultPoint::kPackWeights, FaultPoint::kPlanCompile}) {
    // Fresh model per point so packs/plans recompile lazily and actually
    // cross the armed fault site.
    core::DuetModel model(t, SmallModelOptions());
    core::DuetEstimator est(model);
    serve::ServingOptions sopt;
    sopt.min_shard = 64;  // single shard: one fault degrades the whole batch
    serve::ServingEngine engine(est, sopt);
    engine.AttachFallback(&fallback);

    FaultInjector::Arm(point, 1);
    const std::vector<serve::Estimate> results = engine.EstimateBatchEx(queries);
    EXPECT_EQ(FaultInjector::fired(point), 1u)
        << "fault point " << static_cast<int>(point) << " never crossed";
    for (const serve::Estimate& e : results) {
      EXPECT_TRUE(e.fallback) << "fault point " << static_cast<int>(point);
    }
    FaultInjector::Disarm(point);
    // Recovery: estimates match the clean single-thread path afterwards.
    const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
    const std::vector<serve::Estimate> after = engine.EstimateBatchEx(queries);
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_FALSE(after[i].fallback);
      EXPECT_EQ(after[i].selectivity, reference[i]);
    }
  }
}

// ---- circuit breaker: trips to fallback-only, probes its way back ----

TEST_F(ResilienceTest, BreakerTripsOpenAndProbesClosed) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);
  serve::ServingOptions sopt;
  sopt.min_shard = 64;  // single shard: one fault per dispatch
  sopt.breaker_threshold = 2;
  sopt.breaker_cooldown_us = 1;  // probe immediately in this test
  serve::ServingEngine engine(est, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 3);
  // Two consecutive failed dispatches trip the breaker...
  FaultInjector::Arm(FaultPoint::kNeuralForward, 2);
  engine.EstimateBatchEx(queries);
  engine.EstimateBatchEx(queries);
  serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_state, 1u);  // open

  // ...the cooldown elapses, the next dispatch is the elected probe (the
  // injected budget is spent, so it succeeds) and the breaker closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::vector<serve::Estimate> probe = engine.EstimateBatchEx(queries);
  for (const serve::Estimate& e : probe) EXPECT_FALSE(e.fallback);
  stats = engine.stats();
  EXPECT_EQ(stats.breaker_state, 0u);  // closed again
  EXPECT_EQ(stats.breaker_trips, 1u);

  const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
  const std::vector<serve::Estimate> healthy = engine.EstimateBatchEx(queries);
  for (size_t i = 0; i < healthy.size(); ++i) {
    EXPECT_EQ(healthy[i].selectivity, reference[i]);
  }
}

TEST_F(ResilienceTest, OpenBreakerServesFallbackWithoutNeuralAttempts) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);
  serve::ServingOptions sopt;
  sopt.min_shard = 64;  // single shard: one fault per dispatch
  sopt.breaker_threshold = 1;
  sopt.breaker_cooldown_us = 60 * 1000 * 1000;  // never elapses in-test
  serve::ServingEngine engine(est, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 3);
  FaultInjector::Arm(FaultPoint::kNeuralForward, 1);
  engine.EstimateBatchEx(queries);  // trips open
  ASSERT_EQ(engine.stats().breaker_state, 1u);

  const uint64_t shards_open = engine.stats().shards;
  const std::vector<serve::Estimate> results = engine.EstimateBatchEx(queries);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].fallback);
    EXPECT_EQ(results[i].selectivity, fallback.EstimateSelectivity(queries[i]));
  }
  // No shard ever ran: the open breaker short-circuits before the pool.
  EXPECT_EQ(engine.stats().shards, shards_open);
}

// ---- corrupt checkpoints: clean error, model untouched ----

TEST_F(ResilienceTest, TornCheckpointWriteIsRejectedCleanly) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  const std::string path = ::testing::TempDir() + "/duet_resilience_torn.bin";

  FaultInjector::Arm(FaultPoint::kCheckpointWrite, 1);
  core::SaveModuleFile(path, "duet", model);  // writes a torn (truncated) file
  EXPECT_EQ(FaultInjector::fired(FaultPoint::kCheckpointWrite), 1u);

  core::DuetModel reloaded(t, SmallModelOptions());
  const std::vector<Query> probe = MakeQueries(t, 10);
  const std::vector<double> before = reloaded.EstimateSelectivityBatch(probe);
  const core::CheckpointStatus st = core::TryLoadModuleFile(path, "duet", &reloaded);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find(path), std::string::npos);
  // The failed load never touched the destination model.
  EXPECT_EQ(reloaded.EstimateSelectivityBatch(probe), before);
  std::remove(path.c_str());
}

// ---- failed publishes: retried with backoff, then abandoned safely ----

TEST_F(ResilienceTest, PublishFailureIsRetriedUntilSuccess) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const uint64_t id_before = registry.Current()->id();

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 78;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 2;
  wopt.publish_retries = 3;
  wopt.backoff_initial_us = 10;  // keep the test fast
  wopt.backoff_max_us = 100;
  serve::UpdateWorker worker(registry, wopt);
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }

  // First two attempts fail, the third succeeds within the retry budget.
  FaultInjector::Arm(FaultPoint::kPublish, 2);
  ASSERT_TRUE(worker.RunOnce());
  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.publish_failures, 2u);
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.publish_abandoned, 0u);
  EXPECT_GT(registry.Current()->id(), id_before);
}

TEST_F(ResilienceTest, PublishAbandonedAfterRetryBudgetKeepsOldSnapshot) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const uint64_t id_before = registry.Current()->id();
  const std::vector<Query> probe = MakeQueries(t, 10);
  const std::vector<double> before =
      registry.Current()->estimator().EstimateSelectivityBatch(probe);

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 79;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 2;
  wopt.publish_retries = 2;
  wopt.backoff_initial_us = 10;
  wopt.backoff_max_us = 100;
  serve::UpdateWorker worker(registry, wopt);
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }

  // Every attempt (1 + 2 retries) fails: the candidate is abandoned and the
  // registry keeps serving the previous snapshot.
  FaultInjector::Arm(FaultPoint::kPublish, 100);
  ASSERT_TRUE(worker.RunOnce());
  FaultInjector::Disarm(FaultPoint::kPublish);
  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.publish_failures, 3u);  // 1 attempt + 2 retries
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.publish_abandoned, 1u);
  EXPECT_EQ(registry.Current()->id(), id_before);
  EXPECT_EQ(registry.Current()->estimator().EstimateSelectivityBatch(probe), before);
}

// ---- divergent fine-tune rounds: gated, rolled back, quarantined ----

TEST_F(ResilienceTest, DivergentFineTuneIsRolledBackAndQuarantined) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const uint64_t id_before = registry.Current()->id();
  const std::vector<Query> probe = MakeQueries(t, 10);
  const std::vector<double> before =
      registry.Current()->estimator().EstimateSelectivityBatch(probe);

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 80;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 1;
  serve::UpdateWorker worker(registry, wopt);
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }

  FaultInjector::Arm(FaultPoint::kFineTuneDiverge, 1);
  ASSERT_TRUE(worker.RunOnce());
  EXPECT_EQ(FaultInjector::fired(FaultPoint::kFineTuneDiverge), 1u);

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.quarantined_rounds, 1u);
  EXPECT_EQ(stats.feedback_quarantined, static_cast<uint64_t>(wl.size()));
  EXPECT_EQ(worker.quarantined_feedback(), static_cast<int64_t>(wl.size()));
  // The poisoned round's pairs are out of the live buffer but inspectable.
  const query::Workload quarantined = worker.DrainQuarantine();
  EXPECT_EQ(quarantined.size(), wl.size());
  EXPECT_EQ(worker.quarantined_feedback(), 0);
  EXPECT_EQ(worker.pending_feedback(), 0);
  // The NaN candidate never reached serving.
  EXPECT_EQ(registry.Current()->id(), id_before);
  EXPECT_EQ(registry.Current()->estimator().EstimateSelectivityBatch(probe), before);
}

// ---- end-to-end: registry-mode engine stays up across injected faults ----

TEST_F(ResilienceTest, RegistryEngineSurvivesFaultStorm) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  baselines::IndependenceEstimator fallback(t);
  serve::ServingOptions sopt;
  sopt.max_batch = 4;
  sopt.max_wait_us = 1000;
  sopt.breaker_threshold = 3;
  sopt.breaker_cooldown_us = 1000;
  serve::ServingEngine engine(registry, sopt);
  engine.AttachFallback(&fallback);

  const std::vector<Query> queries = MakeQueries(t, 40);
  // Sprinkle failures across the storm; every future must still complete
  // with either a real or a flagged fallback answer.
  FaultInjector::Arm(FaultPoint::kNeuralForward, 4, /*skip=*/2);
  std::vector<serve::ServingEngine::Future> futures;
  for (const Query& q : queries) futures.push_back(engine.Submit(q));
  size_t degraded = 0;
  for (auto& f : futures) {
    const serve::Estimate e = f.Result();
    if (e.degraded()) ++degraded;
  }
  EXPECT_GE(degraded, 1u);
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GE(stats.neural_failures, 1u);
  EXPECT_GE(stats.fallback_served, degraded);
}

}  // namespace
}  // namespace duet
