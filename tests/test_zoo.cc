// Model-zoo suite (`ctest -L zoo`): lazy loading, cost-aware LRU eviction
// under a budget, pinning, re-publish semantics, and the concurrency
// contract of serve::ModelZoo + the zoo-mode ServingEngine.
//
// The properties pinned here (docs/model_zoo.md):
//  * the memory budget is never exceeded by evictable state — ResidentBytes
//    stays <= max(budget, pinned working set) at every observation point;
//  * pinned models are never evicted, LRU victims are the coldest unpinned
//    residents (ties toward larger mappings);
//  * eviction is transparent: a later acquire reloads from the artifact
//    path and serves bitwise-identical estimates, with zero repacks
//    (tensor::PackWeightsCalls() stays flat across any number of reloads);
//  * teardown leaks nothing: after eviction and pin release,
//    AliveSnapshots() == 0;
//  * N client threads hammering keyed EstimateBatch across many models —
//    with a publisher re-registering keys and an evictor churning under
//    them — observe per-batch results bitwise equal to one of that key's
//    published models, never a crash or a mid-batch mix.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "common/rng.h"
#include "core/duet_model.h"
#include "data/generator.h"
#include "data/table.h"
#include "gtest/gtest.h"
#include "query/query.h"
#include "query/workload.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"

namespace duet {
namespace {

using artifact::ArtifactStatus;
using query::Query;

data::Table SmallTable() { return data::CensusLike(300, 13); }

core::DuetModelOptions SmallModelOptions(uint64_t seed) {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {12, 12};
  opt.residual = true;
  opt.seed = seed;
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

std::string TempPath(const std::string& name) {
  return "/tmp/duet_zoo_" + std::to_string(::getpid()) + "_" + name + ".duet";
}

/// Writes one artifact for a model seeded with `seed` and returns the
/// reference estimates the zoo must reproduce bitwise after any reload.
std::vector<double> WriteModelArtifact(const data::Table& table, uint64_t seed,
                                       const std::string& path,
                                       const std::vector<Query>& queries) {
  core::DuetModel model(table, SmallModelOptions(seed));
  model.SetInferenceBackend(tensor::WeightBackend::kCsrF32);
  const std::vector<double> reference = model.EstimateSelectivityBatch(queries);
  const ArtifactStatus st = artifact::WriteArtifact(path, model, tensor::WeightBackend::kCsrF32);
  EXPECT_TRUE(st.ok) << st.error;
  return reference;
}

/// Zoo test bed: `count` distinct tiny artifacts on disk plus their
/// reference estimates, cleaned up on destruction.
struct ZooBed {
  ZooBed(int count, int num_queries, const std::string& tag)
      : table(SmallTable()), queries(MakeQueries(table, num_queries)) {
    for (int i = 0; i < count; ++i) {
      keys.push_back("model-" + std::to_string(i));
      paths.push_back(TempPath(tag + "_" + std::to_string(i)));
      reference.push_back(WriteModelArtifact(table, 100 + static_cast<uint64_t>(i),
                                             paths.back(), queries));
    }
  }
  ~ZooBed() {
    for (const std::string& p : paths) ::unlink(p.c_str());
  }

  void RegisterAll(serve::ModelZoo& zoo) const {
    for (size_t i = 0; i < keys.size(); ++i) zoo.Register(keys[i], paths[i]);
  }

  data::Table table;
  std::vector<Query> queries;
  std::vector<std::string> keys;
  std::vector<std::string> paths;
  std::vector<std::vector<double>> reference;
};

uint64_t ArtifactBytes(const std::string& path) {
  std::shared_ptr<const artifact::ArtifactModel> model;
  const ArtifactStatus st =
      artifact::LoadArtifact(path, artifact::ArtifactLoadOptions{}, &model);
  EXPECT_TRUE(st.ok) << st.error;
  return model->mapped_bytes();
}

// ---- registration and lazy loading ----

TEST(ModelZooTest, RegistrationIsMetadataOnlyAndLoadsAreLazy) {
  ZooBed bed(3, 16, "lazy");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  EXPECT_EQ(zoo.NumRegistered(), 3u);
  EXPECT_TRUE(zoo.Contains("model-1"));
  EXPECT_FALSE(zoo.Contains("nope"));
  EXPECT_EQ(zoo.ResidentModels(), 0u);
  EXPECT_EQ(zoo.ResidentBytes(), 0u);
  EXPECT_EQ(zoo.stats().loads, 0u);

  serve::ZooPin pin = zoo.Acquire("model-1");
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->key(), "model-1");
  EXPECT_EQ(zoo.ResidentModels(), 1u);
  EXPECT_GT(zoo.ResidentBytes(), 0u);
  EXPECT_EQ(zoo.stats().loads, 1u);
  EXPECT_GT(zoo.stats().last_load_micros, 0.0);

  const std::vector<double> got = pin->model().EstimateSelectivityBatch(bed.queries);
  for (size_t q = 0; q < got.size(); ++q) EXPECT_EQ(got[q], bed.reference[1][q]);

  // A second acquire of a resident model is a cache hit, not a reload.
  serve::ZooPin again = zoo.Acquire("model-1");
  EXPECT_EQ(zoo.stats().loads, 1u);
  serve::ZooModelStats ms;
  ASSERT_TRUE(zoo.ModelStats("model-1", &ms));
  EXPECT_TRUE(ms.resident);
  EXPECT_EQ(ms.pins, 2u);
  EXPECT_EQ(ms.loads, 1u);
}

TEST(ModelZooTest, UnknownKeyIsACleanError) {
  serve::ModelZoo zoo;
  serve::ZooPin pin;
  const ArtifactStatus st = zoo.TryAcquire("missing", &pin);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(pin, nullptr);
  EXPECT_EQ(zoo.ResidentModels(), 0u);
}

// ---- LRU eviction under a budget ----

TEST(ModelZooTest, LruEvictionRespectsBudgetAndRecency) {
  ZooBed bed(4, 12, "lru");
  const uint64_t one = ArtifactBytes(bed.paths[0]);
  serve::ZooOptions zopt;
  zopt.memory_budget_bytes = 2 * one + one / 2;  // room for two residents
  serve::ModelZoo zoo(zopt);
  bed.RegisterAll(zoo);

  zoo.Acquire("model-0");  // pin dropped immediately: evictable
  zoo.Acquire("model-1");
  EXPECT_EQ(zoo.ResidentModels(), 2u);
  EXPECT_LE(zoo.ResidentBytes(), zopt.memory_budget_bytes);

  // Touch model-0 so model-1 becomes the LRU victim, then load a third.
  zoo.Acquire("model-0");
  zoo.Acquire("model-2");
  EXPECT_LE(zoo.ResidentBytes(), zopt.memory_budget_bytes);
  serve::ZooModelStats ms;
  ASSERT_TRUE(zoo.ModelStats("model-1", &ms));
  EXPECT_FALSE(ms.resident) << "LRU victim should have been model-1";
  EXPECT_EQ(ms.evictions, 1u);
  ASSERT_TRUE(zoo.ModelStats("model-0", &ms));
  EXPECT_TRUE(ms.resident);
  ASSERT_TRUE(zoo.ModelStats("model-2", &ms));
  EXPECT_TRUE(ms.resident);
}

TEST(ModelZooTest, PinnedModelsAreNeverEvicted) {
  ZooBed bed(3, 12, "pin");
  const uint64_t one = ArtifactBytes(bed.paths[0]);
  serve::ZooOptions zopt;
  zopt.memory_budget_bytes = one + one / 2;  // room for one resident
  serve::ModelZoo zoo(zopt);
  bed.RegisterAll(zoo);

  serve::ZooPin pin0 = zoo.Acquire("model-0");
  serve::ZooPin pin1 = zoo.Acquire("model-1");
  // Both pinned: the pinned working set alone exceeds the budget, nothing
  // can be evicted, and both mappings must survive.
  EXPECT_EQ(zoo.ResidentModels(), 2u);
  serve::ZooModelStats ms;
  ASSERT_TRUE(zoo.ModelStats("model-0", &ms));
  EXPECT_TRUE(ms.resident);
  EXPECT_EQ(ms.evictions, 0u);

  // Dropping the older pin lets the deferred budget enforcement run: the
  // now-unpinned model-0 is the victim; the still-pinned model-1 survives.
  pin0.reset();
  EXPECT_LE(zoo.ResidentBytes(), zopt.memory_budget_bytes);
  ASSERT_TRUE(zoo.ModelStats("model-0", &ms));
  EXPECT_FALSE(ms.resident);
  ASSERT_TRUE(zoo.ModelStats("model-1", &ms));
  EXPECT_TRUE(ms.resident);
  EXPECT_EQ(ms.evictions, 0u);

  // Explicit eviction of a pinned model must refuse.
  EXPECT_FALSE(zoo.Evict("model-1"));
  pin1.reset();
  EXPECT_TRUE(zoo.Evict("model-1"));
  EXPECT_EQ(zoo.ResidentModels(), 0u);
}

TEST(ModelZooTest, EvictionIsTransparentAndBitwiseRepeatable) {
  ZooBed bed(2, 20, "reload");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);

  const uint64_t packs_before = tensor::PackWeightsCalls();
  for (int round = 0; round < 5; ++round) {
    serve::ZooPin pin = zoo.Acquire("model-0");
    const std::vector<double> got = pin->model().EstimateSelectivityBatch(bed.queries);
    for (size_t q = 0; q < got.size(); ++q) {
      ASSERT_EQ(got[q], bed.reference[0][q]) << "round " << round << " query " << q;
    }
    pin.reset();
    EXPECT_TRUE(zoo.Evict("model-0"));
  }
  serve::ZooModelStats ms;
  ASSERT_TRUE(zoo.ModelStats("model-0", &ms));
  EXPECT_EQ(ms.loads, 5u);
  EXPECT_EQ(ms.evictions, 5u);
  EXPECT_EQ(tensor::PackWeightsCalls(), packs_before)
      << "zoo reloads must never repack weights";
  EXPECT_EQ(zoo.AliveSnapshots(), 0u) << "evicted, unpinned: nothing may stay mapped";
}

TEST(ModelZooTest, RepublishSwapsModelsWhilePinsFinishOnTheOldOne) {
  ZooBed bed(2, 16, "republish");
  serve::ModelZoo zoo;
  zoo.Register("live", bed.paths[0]);

  serve::ZooPin old_pin = zoo.Acquire("live");
  const uint64_t old_fingerprint = old_pin->fingerprint();

  // Re-register the key at a different artifact: the zoo's resident copy is
  // dropped; the outstanding pin keeps serving the superseded mapping.
  zoo.Register("live", bed.paths[1]);
  EXPECT_EQ(zoo.ResidentModels(), 0u);
  const std::vector<double> old_bits = old_pin->model().EstimateSelectivityBatch(bed.queries);
  for (size_t q = 0; q < old_bits.size(); ++q) EXPECT_EQ(old_bits[q], bed.reference[0][q]);

  serve::ZooPin new_pin = zoo.Acquire("live");
  EXPECT_NE(new_pin->fingerprint(), old_fingerprint);
  const std::vector<double> new_bits = new_pin->model().EstimateSelectivityBatch(bed.queries);
  for (size_t q = 0; q < new_bits.size(); ++q) EXPECT_EQ(new_bits[q], bed.reference[1][q]);

  // Both generations are alive while held; releasing drains the old one.
  EXPECT_EQ(zoo.AliveSnapshots(), 2u);
  old_pin.reset();
  EXPECT_EQ(zoo.AliveSnapshots(), 1u);
  new_pin.reset();
  zoo.EvictAll();
  EXPECT_EQ(zoo.AliveSnapshots(), 0u);
}

// ---- randomized churn property test ----

TEST(ModelZooTest, RandomizedZipfChurnKeepsEveryInvariant) {
  constexpr int kModels = 10;
  ZooBed bed(kModels, 10, "churn");
  const uint64_t one = ArtifactBytes(bed.paths[0]);
  serve::ZooOptions zopt;
  zopt.memory_budget_bytes = 3 * one + one / 2;
  serve::ModelZoo zoo(zopt);
  bed.RegisterAll(zoo);

  Rng rng(2024);
  ZipfDistribution zipf(kModels, 1.1);
  const uint64_t packs_before = tensor::PackWeightsCalls();
  for (int iter = 0; iter < 400; ++iter) {
    const int m = static_cast<int>(zipf.Sample(rng));
    const double op = rng.UniformDouble();
    if (op < 0.70) {
      // Acquire, serve, release — the common path.
      serve::ZooPin pin;
      const ArtifactStatus st = zoo.TryAcquire(bed.keys[static_cast<size_t>(m)], &pin);
      ASSERT_TRUE(st.ok) << st.error;
      // While pinned, the budget may only be exceeded by the pinned set.
      EXPECT_LE(zoo.ResidentBytes(),
                std::max(zopt.memory_budget_bytes, pin->model().mapped_bytes()));
      const std::vector<double> got = pin->model().EstimateSelectivityBatch(bed.queries);
      for (size_t q = 0; q < got.size(); ++q) {
        ASSERT_EQ(got[q], bed.reference[static_cast<size_t>(m)][q])
            << "iter " << iter << " model " << m;
      }
      pin->NoteServed(got.size());
    } else if (op < 0.85) {
      zoo.Evict(bed.keys[static_cast<size_t>(m)]);  // may refuse; that's fine
    } else {
      // Re-publish the same artifact path (a no-op version bump).
      zoo.Register(bed.keys[static_cast<size_t>(m)], bed.paths[static_cast<size_t>(m)]);
    }
    // With no pins outstanding the budget is a hard bound.
    EXPECT_LE(zoo.ResidentBytes(), zopt.memory_budget_bytes) << "iter " << iter;
    EXPECT_LE(zoo.AliveSnapshots(), zoo.ResidentModels()) << "iter " << iter;
  }
  EXPECT_EQ(tensor::PackWeightsCalls(), packs_before);

  const serve::ZooStats stats = zoo.stats();
  EXPECT_GT(stats.loads, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.serves, 0u);

  zoo.EvictAll();
  EXPECT_EQ(zoo.ResidentModels(), 0u);
  EXPECT_EQ(zoo.ResidentBytes(), 0u);
  EXPECT_EQ(zoo.AliveSnapshots(), 0u) << "teardown leaked a mapping";
}

// ---- zoo-mode serving engine ----

TEST(ZooServingTest, KeyedEstimateBatchMatchesDirectModelBitwise) {
  ZooBed bed(4, 32, "engine");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingOptions sopt;
  serve::ServingEngine engine(zoo, sopt);

  for (size_t m = 0; m < bed.keys.size(); ++m) {
    uint64_t snapshot_id = 0;
    const std::vector<double> got = engine.EstimateBatch(bed.keys[m], bed.queries, &snapshot_id);
    ASSERT_EQ(got.size(), bed.queries.size());
    for (size_t q = 0; q < got.size(); ++q) EXPECT_EQ(got[q], bed.reference[m][q]);
    serve::ZooPin pin = zoo.Acquire(bed.keys[m]);
    EXPECT_EQ(snapshot_id, pin->fingerprint()) << "zoo snapshot id is the fingerprint";
  }

  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.queries, bed.keys.size() * bed.queries.size());
  serve::ZooModelStats ms;
  ASSERT_TRUE(zoo.ModelStats("model-2", &ms));
  EXPECT_EQ(ms.serves, bed.queries.size()) << "per-model serve accounting";
}

TEST(ZooServingTest, UnknownKeyDegradesToFallbackFlagged) {
  ZooBed bed(1, 8, "fallback");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingEngine engine(zoo);

  const std::vector<serve::Estimate> results = engine.EstimateBatchEx("no-such-model", bed.queries);
  ASSERT_EQ(results.size(), bed.queries.size());
  for (const serve::Estimate& e : results) {
    EXPECT_TRUE(e.fallback) << "missing model must degrade, not crash";
    EXPECT_EQ(e.selectivity, 0.0) << "no fallback attached: flagged 0.0";
  }
  // The breaker must NOT have tripped: a missing model is not a neural
  // failure, and the registered model still serves normally.
  const std::vector<double> ok = engine.EstimateBatch(bed.keys[0], bed.queries);
  for (size_t q = 0; q < ok.size(); ++q) EXPECT_EQ(ok[q], bed.reference[0][q]);
  EXPECT_EQ(engine.stats().breaker_trips, 0u);
}

TEST(ZooServingTest, KeyedSubmitGroupsMicroBatchesByModel) {
  ZooBed bed(3, 24, "submit");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingOptions sopt;
  sopt.max_batch = 16;
  sopt.max_wait_us = 2000;
  serve::ServingEngine engine(zoo, sopt);

  std::vector<std::pair<size_t, serve::ServingEngine::Future>> futures;
  for (int round = 0; round < 3; ++round) {
    for (size_t m = 0; m < bed.keys.size(); ++m) {
      for (size_t q = 0; q < bed.queries.size(); q += 3) {
        futures.emplace_back(m * bed.queries.size() + q,
                             engine.Submit(bed.keys[m], bed.queries[q]));
      }
    }
  }
  for (auto& [slot, future] : futures) {
    const size_t m = slot / bed.queries.size();
    const size_t q = slot % bed.queries.size();
    EXPECT_EQ(future.Wait(), bed.reference[m][q])
        << "async answer drifted from model " << m << " query " << q;
  }
}

// Zoo models of different keys are different models, not versions of one:
// alternating keys must not count as snapshot hot swaps, and the registry
// snapshot gauges stay 0 in zoo mode (re-registration is counted by
// ZooModelStats::evictions instead).
TEST(ZooServingTest, AlternatingKeysAreNotSnapshotSwaps) {
  ZooBed bed(2, 8, "swaps");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingEngine engine(zoo);

  for (int round = 0; round < 3; ++round) {
    for (size_t m = 0; m < bed.keys.size(); ++m) {
      const std::vector<double> got = engine.EstimateBatch(bed.keys[m], bed.queries);
      for (size_t q = 0; q < got.size(); ++q) EXPECT_EQ(got[q], bed.reference[m][q]);
    }
  }
  const serve::ServingStats stats = engine.stats();
  EXPECT_EQ(stats.sync_batches, 6u);
  EXPECT_EQ(stats.snapshot_swaps, 0u) << "key A,B,A traffic counted as hot swaps";
  EXPECT_EQ(stats.snapshot_id, 0u);
}

// The key contract is checked once, on the caller's thread: a zoo engine
// needs a key, a single-model engine serves only the empty key. Both
// engines own a scheduler thread, hence the threadsafe death-test style.
TEST(ZooServingDeathTest, KeyMisuseDiesOnTheCallersThread) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ZooBed bed(1, 4, "death");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  EXPECT_DEATH(
      {
        serve::ServingEngine engine(zoo);
        engine.EstimateBatch(bed.queries);
      },
      "engines take a model key");

  core::DuetModel model(bed.table, SmallModelOptions(100));
  core::DuetEstimator est(model);
  EXPECT_DEATH(
      {
        serve::ServingEngine engine(est);
        engine.Submit("k", bed.queries[0]);
      },
      "engines take a model key");
}

// ---- concurrency: readers vs publisher vs evictor ----

TEST(ZooServingTest, ConcurrentServePublishEvictStaysBitwise) {
  constexpr int kModels = 64;
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 60;
  ZooBed bed(kModels, 8, "conc");
  // One alternate artifact per republished key (same table, different
  // seed): concurrent batches must observe exactly generation A or B.
  const int kRepublished = 8;
  std::vector<std::string> alt_paths;
  std::vector<std::vector<double>> alt_reference;
  for (int i = 0; i < kRepublished; ++i) {
    alt_paths.push_back(TempPath("conc_alt_" + std::to_string(i)));
    alt_reference.push_back(WriteModelArtifact(bed.table, 9000 + static_cast<uint64_t>(i),
                                               alt_paths.back(), bed.queries));
  }

  const uint64_t one = ArtifactBytes(bed.paths[0]);
  serve::ZooOptions zopt;
  zopt.memory_budget_bytes = 12 * one;  // far fewer than kModels: real churn
  serve::ModelZoo zoo(zopt);
  bed.RegisterAll(zoo);

  serve::ServingOptions sopt;
  serve::ServingEngine engine(zoo, sopt);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7000 + static_cast<uint64_t>(t));
      ZipfDistribution zipf(kModels, 1.05);
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const size_t m = zipf.Sample(rng);
        const std::vector<double> got = engine.EstimateBatch(bed.keys[m], bed.queries);
        // The whole batch must match one generation of this key bitwise.
        const std::vector<double>& a = bed.reference[m];
        bool match_a = true, match_b = false;
        for (size_t q = 0; q < got.size(); ++q) match_a = match_a && got[q] == a[q];
        if (!match_a && m < static_cast<size_t>(kRepublished)) {
          const std::vector<double>& b = alt_reference[m];
          match_b = true;
          for (size_t q = 0; q < got.size(); ++q) match_b = match_b && got[q] == b[q];
        }
        if (!match_a && !match_b) mismatches.fetch_add(1);
      }
    });
  }
  std::thread publisher([&] {
    Rng rng(555);
    int flip = 0;
    while (!stop.load()) {
      const size_t m = rng.UniformInt(kRepublished);
      const bool alt = (flip++ & 1) != 0;
      zoo.Register(bed.keys[m], alt ? alt_paths[m] : bed.paths[m]);
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    Rng rng(777);
    while (!stop.load()) {
      zoo.Evict(bed.keys[rng.UniformInt(kModels)]);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  publisher.join();
  evictor.join();

  EXPECT_EQ(mismatches.load(), 0) << "a concurrent batch served mixed/foreign bits";
  EXPECT_LE(zoo.ResidentBytes(), zopt.memory_budget_bytes);

  // Drain: evict everything, nothing may stay mapped.
  zoo.EvictAll();
  EXPECT_EQ(zoo.ResidentModels(), 0u);
  EXPECT_EQ(zoo.AliveSnapshots(), 0u);
  for (const std::string& p : alt_paths) ::unlink(p.c_str());
}

}  // namespace
}  // namespace duet
