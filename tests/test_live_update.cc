// Online-update subsystem: immutable model snapshots must give every
// dispatched batch bitwise snapshot isolation under concurrent publish
// churn (no quiesce anywhere); pinned caches must ignore version bumps
// from other models' training; a poisoned fine-tune batch must fail the
// validation gate and roll back; and snapshot churn must not leak — the
// refcounted live set collapses to the current snapshot once traffic
// drains. Runs under ASan in CI like the rest of the suite.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/duet_model.h"
#include "core/finetune.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "gtest/gtest.h"
#include "query/workload.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"
#include "tensor/tensor.h"

namespace duet {
namespace {

using query::Query;

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

/// Deterministically nudges every parameter so two perturbed clones (and
/// their estimates) differ; holds the mutation guard the contract demands.
void PerturbParameters(core::DuetModel& model, int salt) {
  tensor::ParameterMutationGuard mutation;
  for (const tensor::Tensor& p : model.parameters()) {
    tensor::Tensor t = p;  // shared handle
    float* d = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
      d[i] += 0.01f * static_cast<float>(salt) *
              std::sin(static_cast<float>(i % 17) + static_cast<float>(salt));
    }
  }
}

TEST(ModelRegistryTest, PublishSwapsCurrentAndStampsIncrease) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const auto first = registry.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first->id(), 0u);
  EXPECT_EQ(registry.stats().published, 1u);
  EXPECT_EQ(registry.stats().current_id, first->id());

  auto clone = registry.CloneCurrent();
  PerturbParameters(*clone, 3);
  const auto second = registry.Publish(std::move(clone));
  EXPECT_GT(second->id(), first->id());
  EXPECT_EQ(registry.Current().get(), second.get());
  EXPECT_EQ(registry.stats().published, 2u);
  // The superseded snapshot is still alive here only because `first` holds
  // it.
  EXPECT_EQ(registry.AliveSnapshots(), 2u);
}

TEST(ModelRegistryTest, CloneIsBitwiseIdenticalButIndependent) {
  const data::Table t = SmallTable();
  core::DuetModel model(t, SmallModelOptions());
  const std::vector<Query> queries = MakeQueries(t, 24);
  const std::vector<double> original = model.EstimateSelectivityBatch(queries);

  auto clone = core::CloneModel(model);
  EXPECT_EQ(clone->EstimateSelectivityBatch(queries), original);

  // Training the clone must not disturb the original's estimates.
  PerturbParameters(*clone, 7);
  EXPECT_NE(clone->EstimateSelectivityBatch(queries), original);
  EXPECT_EQ(model.EstimateSelectivityBatch(queries), original);
}

// The multi-version cache rule: a frozen snapshot's pinned plan cache
// ignores the global version bumps another model's training emits — no
// recompiles, bitwise-stable estimates.
TEST(LiveUpdateTest, PinnedCachesIgnoreForeignParameterBumps) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const auto snap = registry.Current();
  const std::vector<Query> queries = MakeQueries(t, 20);

  const std::vector<double> before = snap->estimator().EstimateSelectivityBatch(queries);
  const uint64_t compiles_before = snap->model().PlanInfo().compiles;
  const uint64_t bytes_before = snap->model().CachedBytes();
  ASSERT_GE(compiles_before, 1u);  // prewarm compiled the plan
  ASSERT_GT(bytes_before, 0u);

  // Foreign mutations: direct bumps plus a real training run on a separate
  // model (every optimizer step bumps the global counter).
  tensor::BumpParameterVersion();
  core::DuetModel other(t, SmallModelOptions());
  core::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 128;
  core::DuetTrainer(other, topt).Train();
  tensor::BumpParameterVersion();

  EXPECT_EQ(snap->estimator().EstimateSelectivityBatch(queries), before);
  EXPECT_EQ(snap->model().PlanInfo().compiles, compiles_before)
      << "pinned plan cache recompiled on a foreign version bump";
  EXPECT_EQ(snap->model().CachedBytes(), bytes_before);
}

TEST(LiveUpdateTest, HotSwapServesNewSnapshotWithoutQuiesce) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::ServingOptions sopt;
  sopt.min_shard = 4;
  serve::ServingEngine engine(registry, sopt);
  const std::vector<Query> queries = MakeQueries(t, 30);

  uint64_t id_before = 0;
  const std::vector<double> before = engine.EstimateBatch(queries, &id_before);
  EXPECT_EQ(id_before, registry.Current()->id());
  // Sharded registry-mode serving still equals the single-thread path.
  EXPECT_EQ(before, registry.Current()->estimator().EstimateSelectivityBatch(queries));

  auto clone = registry.CloneCurrent();
  PerturbParameters(*clone, 5);
  registry.Publish(std::move(clone));

  uint64_t id_after = 0;
  const std::vector<double> after = engine.EstimateBatch(queries, &id_after);
  EXPECT_GT(id_after, id_before);
  EXPECT_NE(after, before) << "dispatch after publish still served the old snapshot";
  EXPECT_EQ(after, registry.Current()->estimator().EstimateSelectivityBatch(queries));
  EXPECT_GE(engine.stats().snapshot_swaps, 1u);
}

// The tentpole invariant: under repeated concurrent publishes, every batch
// a client dispatches is bitwise equal to what the snapshot it started on
// would produce single-threaded — no torn batches, no mixing, no locks.
TEST(LiveUpdateTest, SnapshotIsolationUnderConcurrentPublishChurn) {
  const data::Table t = SmallTable();
  const std::vector<Query> queries = MakeQueries(t, 48);
  constexpr int kPublishes = 6;

  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));

  // Pre-build every future snapshot's model and its single-thread reference
  // so serving threads can verify against ground truth computed outside the
  // race.
  std::vector<std::unique_ptr<core::DuetModel>> models;
  std::vector<std::vector<double>> refs;  // refs[i] for models[i]
  for (int i = 0; i < kPublishes; ++i) {
    auto m = registry.CloneCurrent();
    PerturbParameters(*m, i + 1);
    refs.push_back(m->EstimateSelectivityBatch(queries));
    models.push_back(std::move(m));
  }

  // id -> reference index; the initial snapshot gets its own reference.
  std::mutex map_mu;
  std::map<uint64_t, int> id_to_ref;
  const int kInitialRef = kPublishes;
  refs.push_back(registry.Current()->estimator().EstimateSelectivityBatch(queries));
  id_to_ref[registry.Current()->id()] = kInitialRef;

  serve::ServingOptions sopt;
  sopt.min_shard = 8;
  serve::ServingEngine engine(registry, sopt);

  std::atomic<bool> failed{false};
  auto serve_loop = [&] {
    for (int iter = 0; iter < 40 && !failed.load(); ++iter) {
      uint64_t id = 0;
      const std::vector<double> got = engine.EstimateBatch(queries, &id);
      int ref_index = -1;
      // The publisher records the id right after Publish returns; a reader
      // can observe the snapshot a moment earlier, so wait for the entry.
      for (int spin = 0; spin < 10000 && ref_index < 0; ++spin) {
        {
          std::lock_guard<std::mutex> lock(map_mu);
          auto it = id_to_ref.find(id);
          if (it != id_to_ref.end()) ref_index = it->second;
        }
        if (ref_index < 0) std::this_thread::yield();
      }
      ASSERT_GE(ref_index, 0) << "snapshot id " << id << " never registered";
      const std::vector<double>& expected = refs[static_cast<size_t>(ref_index)];
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i] != expected[i]) {
          failed.store(true);
          FAIL() << "batch started on snapshot " << id << " diverged at query " << i
                 << ": got " << got[i] << " want " << expected[i];
        }
      }
    }
  };

  std::thread client_a(serve_loop);
  std::thread client_b(serve_loop);
  for (int i = 0; i < kPublishes; ++i) {
    const auto snap = registry.Publish(std::move(models[static_cast<size_t>(i)]));
    {
      std::lock_guard<std::mutex> lock(map_mu);
      id_to_ref[snap->id()] = i;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client_a.join();
  client_b.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(registry.stats().published, static_cast<uint64_t>(kPublishes) + 1);
}

// Async micro-batched traffic during churn: every Future's value must match
// one published snapshot's reference for that query (one snapshot per
// micro-batch; no torn values).
TEST(LiveUpdateTest, AsyncSubmitDuringChurnMatchesSomeSnapshot) {
  const data::Table t = SmallTable();
  const std::vector<Query> queries = MakeQueries(t, 32);
  constexpr int kPublishes = 4;

  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  std::vector<std::unique_ptr<core::DuetModel>> models;
  std::vector<std::vector<double>> refs;
  refs.push_back(registry.Current()->estimator().EstimateSelectivityBatch(queries));
  for (int i = 0; i < kPublishes; ++i) {
    auto m = registry.CloneCurrent();
    PerturbParameters(*m, 11 + i);
    refs.push_back(m->EstimateSelectivityBatch(queries));
    models.push_back(std::move(m));
  }

  serve::ServingOptions sopt;
  sopt.max_batch = 8;
  sopt.max_wait_us = 100;
  serve::ServingEngine engine(registry, sopt);

  std::vector<serve::ServingEngine::Future> futures;
  std::thread publisher([&] {
    for (auto& m : models) {
      registry.Publish(std::move(m));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 6; ++round) {
    for (const Query& q : queries) futures.push_back(engine.Submit(q));
  }
  publisher.join();
  for (size_t f = 0; f < futures.size(); ++f) {
    const double got = futures[f].Wait();
    const size_t qi = f % queries.size();
    bool matches_some_snapshot = false;
    for (const auto& ref : refs) {
      if (got == ref[qi]) {
        matches_some_snapshot = true;
        break;
      }
    }
    EXPECT_TRUE(matches_some_snapshot)
        << "future " << f << " returned " << got
        << ", which no published snapshot would produce for query " << qi;
  }
}

// Gate test: feedback whose tuning slice is poisoned (labels claim every
// query matches the whole table) but whose holdout slice is honest must be
// rolled back — the candidate regresses on data it never trained on — and
// serving must keep the old snapshot, bitwise.
TEST(LiveUpdateTest, RollbackOnPoisonedFineTuneBatch) {
  const data::Table t = SmallTable();
  auto model = std::make_unique<core::DuetModel>(t, SmallModelOptions());
  {  // A briefly trained model so the baseline holdout error is sane.
    core::TrainOptions topt;
    topt.epochs = 2;
    topt.batch_size = 128;
    core::DuetTrainer(*model, topt).Train();
  }
  serve::ModelRegistry registry(std::move(model));
  const uint64_t id_before = registry.Current()->id();
  const std::vector<Query> probe = MakeQueries(t, 20);
  const std::vector<double> before =
      registry.Current()->estimator().EstimateSelectivityBatch(probe);

  query::WorkloadSpec spec;
  spec.num_queries = 64;
  spec.seed = 77;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 32;
  wopt.holdout_every = 4;
  wopt.update.max_regression = 1.05;
  wopt.update.finetune.qerror_threshold = 1.01;  // collect every poisoned pair
  wopt.update.finetune.epochs = 4;
  wopt.update.finetune.learning_rate = 1e-2f;  // hard poison push
  wopt.update.finetune.lambda = 4.0f;
  serve::UpdateWorker worker(registry, wopt);

  // Every 4th pair (the holdout split) keeps its true label; the tuning
  // pairs lie: "this query matched every row".
  for (size_t i = 0; i < wl.size(); ++i) {
    const bool is_holdout = i % 4 == 3;
    worker.AddFeedback(wl[i].query,
                       is_holdout ? static_cast<double>(wl[i].cardinality)
                                  : static_cast<double>(t.num_rows()));
  }
  ASSERT_TRUE(worker.RunOnce());

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.published, 0u);
  EXPECT_EQ(stats.rolled_back, 1u)
      << "holdout before=" << stats.last_holdout_before
      << " after=" << stats.last_holdout_after;
  EXPECT_GT(stats.last_holdout_after,
            stats.last_holdout_before * wopt.update.max_regression);
  // The poisoned candidate never reached serving.
  EXPECT_EQ(registry.Current()->id(), id_before);
  EXPECT_EQ(registry.Current()->estimator().EstimateSelectivityBatch(probe), before);
}

// Honest feedback on an untrained model must clear the gate and hot-swap a
// better snapshot in.
TEST(LiveUpdateTest, WorkerPublishesWhenFeedbackImproves) {
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
  serve::UpdateWorker worker(registry, wopt);
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }
  ASSERT_TRUE(worker.RunOnce());

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.published, 1u) << "holdout before=" << stats.last_holdout_before
                                 << " after=" << stats.last_holdout_after;
  EXPECT_LE(stats.last_holdout_after,
            stats.last_holdout_before * wopt.update.max_regression);
  EXPECT_GT(registry.Current()->id(), id_before);
  // Clone accounting: a publishing round peaks at candidate + publish clone
  // — exactly 2x the model's parameter bytes with the direct-copy
  // CloneModel (the old serialize/deserialize path added a transient
  // serialized image on top).
  const uint64_t model_bytes =
      static_cast<uint64_t>(registry.Current()->model().NumParams()) * sizeof(float);
  EXPECT_EQ(stats.clone_peak_bytes, 2 * model_bytes);
}

// Arena warm-up (RegistryOptions::prewarm_arena_batch): Publish's prewarm
// also runs one batch-shaped pass, so the first post-swap batch served from
// the publisher's thread draws every activation buffer from the warmed
// thread-local TensorArena pools instead of heap-allocating. The arena
// is thread-local, so the assertion runs on the publishing thread (worker
// threads warm their own pools on first traffic).
TEST(LiveUpdateTest, PrewarmPopulatesPublisherArenaForFirstPostSwapBatch) {
  const data::Table t = SmallTable();
  serve::RegistryOptions ropt;
  ropt.prewarm_arena_batch = 16;
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()), ropt);
  const std::vector<Query> queries = MakeQueries(t, 16);

  auto clone = registry.CloneCurrent();
  PerturbParameters(*clone, 5);
  tensor::TensorArena::Clear();  // cold pools: prove Publish rewarms them
  const auto snap = registry.Publish(std::move(clone));
  tensor::TensorArena::ResetStats();
  snap->estimator().EstimateSelectivityBatch(queries);
  const tensor::TensorArena::Stats stats = tensor::TensorArena::stats();
  EXPECT_EQ(stats.fresh_allocs, 0u)
      << "first post-swap batch on the publisher thread paid allocation";
  EXPECT_GT(stats.reuses, 0u);
  tensor::TensorArena::Clear();
}

TEST(LiveUpdateTest, OverflowedFeedbackIsDroppedOldestFirstAndCounted) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 8;
  wopt.max_buffer = 8;  // tiny cap: everything past 8 evicts the oldest
  serve::UpdateWorker worker(registry, wopt);

  query::WorkloadSpec spec;
  spec.num_queries = 12;
  spec.seed = 91;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  for (const auto& lq : wl) {
    worker.AddFeedback(lq.query, static_cast<double>(lq.cardinality));
  }

  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_EQ(stats.feedback_received, 12u);
  EXPECT_EQ(stats.feedback_dropped, 4u);  // 12 submitted into an 8-slot buffer
  EXPECT_EQ(worker.pending_feedback(), 8);
}

TEST(LiveUpdateTest, EngineRoutesObservedFeedbackToWorker) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 1000;  // never triggers a round here
  serve::UpdateWorker worker(registry, wopt);
  serve::ServingEngine engine(registry, {});
  engine.AttachUpdateWorker(&worker);

  const std::vector<Query> queries = MakeQueries(t, 10);
  engine.EstimateBatch(queries);
  for (const Query& q : queries) engine.ReportObserved(q, 42.0);

  EXPECT_EQ(worker.pending_feedback(), 10);
  EXPECT_EQ(worker.stats().feedback_received, 10u);
  EXPECT_EQ(engine.stats().feedback_reported, 10u);

  // Detached: feedback falls through to the estimator hook (a no-op for
  // Duet) instead of the buffer.
  engine.AttachUpdateWorker(nullptr);
  engine.ReportObserved(queries[0], 42.0);
  EXPECT_EQ(worker.pending_feedback(), 10);
  EXPECT_EQ(engine.stats().feedback_reported, 11u);
}

// Churn must not leak snapshots: once traffic drains and external handles
// drop, only the current snapshot survives (the refcount IS the liveness
// rule).
TEST(LiveUpdateTest, NoLeakedSnapshotsAfterChurn) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  const std::vector<Query> queries = MakeQueries(t, 24);
  constexpr int kPublishes = 8;

  {
    serve::ServingOptions sopt;
    sopt.min_shard = 8;
    serve::ServingEngine engine(registry, sopt);
    std::thread client([&] {
      for (int i = 0; i < 60; ++i) engine.EstimateBatch(queries);
    });
    for (int i = 0; i < kPublishes; ++i) {
      auto clone = registry.CloneCurrent();
      PerturbParameters(*clone, 20 + i);
      registry.Publish(std::move(clone));  // returned handle dropped at once
    }
    client.join();
  }  // engine destruction drains every in-flight pin

  EXPECT_EQ(registry.AliveSnapshots(), 1u)
      << "superseded snapshots still referenced after traffic drained";
  EXPECT_EQ(registry.stats().published, static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_EQ(registry.stats().current_id, registry.Current()->id());
}

// Background-thread mode: the worker adapts from streamed feedback while
// the engine keeps serving; at least one snapshot must be published and the
// engine must observe the swap.
TEST(LiveUpdateTest, BackgroundWorkerAdaptsUnderLiveTraffic) {
  const data::Table t = SmallTable();
  serve::ModelRegistry registry(
      std::make_unique<core::DuetModel>(t, SmallModelOptions()));
  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 48;
  wopt.update.finetune.qerror_threshold = 1.5;
  wopt.update.finetune.epochs = 1;
  wopt.update.max_regression = 10.0;  // adaptation liveness, not quality,
                                      // is under test here
  serve::UpdateWorker worker(registry, wopt);
  worker.Start();
  serve::ServingOptions sopt;
  serve::ServingEngine engine(registry, sopt);
  engine.AttachUpdateWorker(&worker);

  query::WorkloadSpec spec;
  spec.num_queries = 48;
  spec.seed = 79;
  const query::Workload wl = query::WorkloadGenerator(t, spec).Generate();
  std::vector<Query> queries;
  for (const auto& lq : wl) queries.push_back(lq.query);

  // Serve + report until the background worker publishes (bounded wait).
  bool published = false;
  for (int round = 0; round < 200 && !published; ++round) {
    engine.EstimateBatch(queries);
    for (const auto& lq : wl) {
      engine.ReportObserved(lq.query, static_cast<double>(lq.cardinality));
    }
    published = worker.stats().published + worker.stats().rolled_back +
                    worker.stats().skipped >
                0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  worker.Stop();
  const serve::UpdateWorkerStats stats = worker.stats();
  EXPECT_GE(stats.rounds, 1u) << "background worker never ran a round";
  // Serving stayed live throughout; if a publish happened, new dispatches
  // see the new snapshot.
  if (stats.published > 0) {
    uint64_t id = 0;
    engine.EstimateBatch(queries, &id);
    EXPECT_EQ(id, registry.Current()->id());
  }
}

}  // namespace
}  // namespace duet
