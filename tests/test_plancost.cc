// Plan-cost suite (`ctest -L optimizer`): the provider-driven join-order
// planner end to end against the serving stack (docs/optimizer.md).
//
// Properties pinned here:
//  * the level-batched DP over the oracle provider finds the brute-force
//    optimal left-deep order on random star schemas, and its P-error is
//    EXACTLY 1.0 (not approximately — the oracle provider serves the same
//    bitwise numbers OptimalPlan() runs on);
//  * chosen plans are a pure function of the provider's cardinalities, so
//    the serving engine's bitwise invariants (shard count, fused vs unfused
//    dispatch, forced SIMD tier, sequential vs batched fetching) make the
//    chosen plan bitwise-identical across every engine configuration;
//  * a remote planner (net::RpcClient against a zoo-mode NetServer) plans
//    bitwise-identically to the in-process provider;
//  * resilience: a breaker-tripped engine or an expired deadline degrades
//    the plan search to flagged fallback estimates — the planner still
//    completes with a valid order and a finite P-error, never a crash;
//  * zero-cardinality answers (a filter matching nothing) clamp cleanly.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "baselines/traditional/independence.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/duet_model.h"
#include "data/table.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/card_provider.h"
#include "optimizer/planner.h"
#include "query/query.h"
#include "serve/fault_injector.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"
#include "tensor/simd_dispatch.h"

namespace duet {
namespace {

using optimizer::CardinalityProvider;
using optimizer::ComposedProviderOptions;
using optimizer::EstimatorCardinalityProvider;
using optimizer::ExactCardinalityProvider;
using optimizer::JoinKeyStats;
using optimizer::JoinOrderPlanner;
using optimizer::JoinPlan;
using optimizer::PlanSearchResult;
using optimizer::RemoteCardinalityProvider;
using optimizer::ServingCardinalityProvider;
using optimizer::StarJoinQuery;
using query::PredOp;
using query::Query;

/// Table with a shared-domain key column (col 0) and a value column (col 1).
data::Table KeyValueTable(const std::string& name, const std::vector<int32_t>& keys,
                          const std::vector<int32_t>& values, int32_t key_ndv,
                          int32_t val_ndv) {
  std::vector<double> key_dict, val_dict;
  for (int32_t v = 0; v < key_ndv; ++v) key_dict.push_back(v);
  for (int32_t v = 0; v < val_ndv; ++v) val_dict.push_back(v);
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("key", keys, key_dict));
  cols.push_back(data::Column::FromCodes("val", values, val_dict));
  return data::Table(name, std::move(cols));
}

data::Table RandomTable(const std::string& name, int64_t rows, int32_t key_ndv,
                        int32_t val_ndv, Rng& rng) {
  std::vector<int32_t> keys(static_cast<size_t>(rows)), vals(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    keys[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(key_ndv)));
    vals[static_cast<size_t>(i)] =
        static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(val_ndv)));
  }
  return KeyValueTable(name, keys, vals, key_ndv, val_ndv);
}

/// Random per-table filter on the value column: none / equality / >= range.
Query RandomFilter(int32_t val_ndv, Rng& rng) {
  Query q;
  const uint64_t kind = rng.UniformInt(3);
  if (kind == 1) {
    q.predicates.push_back(
        {1, PredOp::kEq, static_cast<double>(rng.UniformInt(static_cast<uint64_t>(val_ndv)))});
  } else if (kind == 2) {
    q.predicates.push_back(
        {1, PredOp::kGe, static_cast<double>(rng.UniformInt(static_cast<uint64_t>(val_ndv)))});
  }
  return q;
}

std::string TempPath(const std::string& name) {
  return "/tmp/duet_plancost_" + std::to_string(::getpid()) + "_" + name + ".duet";
}

core::DuetModelOptions TinyModelOptions(uint64_t seed) {
  core::DuetModelOptions opt;
  opt.hidden_sizes = {12, 12};
  opt.residual = true;
  opt.seed = seed;
  return opt;
}

/// Serving bed: three star tables of very different sizes, one frozen
/// artifact per table registered in a zoo under "tbl-<i>". Estimation
/// accuracy is irrelevant here — determinism and degradation flow are what
/// these tests pin — so the models are untrained (frozen at init).
struct PlanBed {
  explicit PlanBed(const std::string& tag) {
    Rng rng(17);
    tables.push_back(RandomTable("big", 600, 24, 6, rng));
    tables.push_back(RandomTable("mid", 240, 24, 6, rng));
    tables.push_back(RandomTable("small", 60, 24, 6, rng));
    for (size_t i = 0; i < tables.size(); ++i) {
      keys.push_back("tbl-" + std::to_string(i));
      paths.push_back(TempPath(tag + "_" + std::to_string(i)));
      core::DuetModel model(tables[i], TinyModelOptions(100 + i));
      model.SetInferenceBackend(tensor::WeightBackend::kCsrF32);
      model.EstimateSelectivityBatch({Query{}});  // compile the plan pre-write
      const artifact::ArtifactStatus st =
          artifact::WriteArtifact(paths[i], model, tensor::WeightBackend::kCsrF32);
      EXPECT_TRUE(st.ok) << st.error;
    }
  }
  ~PlanBed() {
    for (const std::string& p : paths) ::unlink(p.c_str());
  }

  void RegisterAll(serve::ModelZoo& zoo) const {
    for (size_t i = 0; i < keys.size(); ++i) zoo.Register(keys[i], paths[i]);
  }

  StarJoinQuery MakeStar(uint64_t seed) const {
    Rng rng(seed);
    StarJoinQuery star;
    for (const data::Table& t : tables) star.tables.push_back(&t);
    for (size_t i = 0; i < tables.size(); ++i) star.filters.push_back(RandomFilter(6, rng));
    star.join_col = 0;
    return star;
  }

  std::vector<data::Table> tables;
  std::vector<std::string> keys;
  std::vector<std::string> paths;
};

class PlanCostTest : public ::testing::Test {
 protected:
  void SetUp() override { serve::FaultInjector::DisarmAll(); }
  void TearDown() override { serve::FaultInjector::DisarmAll(); }
};

// ---------------------------------------------------------------------------
// DP vs brute force + exact oracle
// ---------------------------------------------------------------------------

TEST_F(PlanCostTest, OracleDpMatchesBruteForceOnRandomStars) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const int k = 3 + static_cast<int>(rng.UniformInt(2));  // 3 or 4 tables
    std::vector<data::Table> tables;
    tables.reserve(static_cast<size_t>(k));
    for (int t = 0; t < k; ++t) {
      const int64_t rows = 40 + static_cast<int64_t>(rng.UniformInt(400));
      tables.push_back(RandomTable("t" + std::to_string(t), rows, 16, 5, rng));
    }
    StarJoinQuery star;
    for (const data::Table& t : tables) star.tables.push_back(&t);
    for (int t = 0; t < k; ++t) star.filters.push_back(RandomFilter(5, rng));
    star.join_col = 0;

    JoinOrderPlanner planner(star);
    ExactCardinalityProvider oracle(planner.exact());
    const PlanSearchResult res = planner.Plan(oracle);
    ASSERT_EQ(static_cast<int>(res.plan.order.size()), k);
    EXPECT_EQ(res.levels, k);
    EXPECT_EQ(res.degraded_estimates, 0u);

    // Brute force every left-deep permutation.
    std::vector<int> order(static_cast<size_t>(k));
    for (int t = 0; t < k; ++t) order[static_cast<size_t>(t)] = t;
    double brute = std::numeric_limits<double>::infinity();
    do {
      brute = std::min(brute, planner.TrueCOut(order));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_DOUBLE_EQ(res.plan.true_cost, brute) << "seed " << seed;

    // Oracle numbers == OptimalPlan numbers, so P-error is 1.0 EXACTLY.
    EXPECT_EQ(planner.PlanCostRatio(res.plan), 1.0) << "seed " << seed;
  }
}

TEST_F(PlanCostTest, EmptyFilterYieldsZeroCostPlanNotACrash) {
  Rng rng(5);
  std::vector<data::Table> tables;
  for (int t = 0; t < 3; ++t) {
    tables.push_back(RandomTable("t" + std::to_string(t), 120, 12, 4, rng));
  }
  StarJoinQuery star;
  for (const data::Table& t : tables) star.tables.push_back(&t);
  star.filters.assign(3, Query{});
  // Contradictory conjunction on table 1: val == 0 AND val == 1 selects
  // nothing, so every subset containing it has exact cardinality 0.
  star.filters[1].predicates.push_back({1, PredOp::kEq, 0.0});
  star.filters[1].predicates.push_back({1, PredOp::kEq, 1.0});
  star.join_col = 0;

  JoinOrderPlanner planner(star);
  ExactCardinalityProvider oracle(planner.exact());
  const PlanSearchResult res = planner.Plan(oracle);
  ASSERT_EQ(res.plan.order.size(), 3u);
  EXPECT_EQ(planner.PlanCostRatio(res.plan), 1.0);  // 0/0 guarded: (0+1)/(0+1)
  EXPECT_TRUE(std::isfinite(res.plan.true_cost));
}

// ---------------------------------------------------------------------------
// Bitwise determinism across serving configurations
// ---------------------------------------------------------------------------

TEST_F(PlanCostTest, ChosenPlanBitwiseIdenticalAcrossEngineConfigs) {
  PlanBed bed("det");
  const StarJoinQuery star = bed.MakeStar(7);
  JoinOrderPlanner planner(star);
  const JoinKeyStats stats(star.tables, star.join_col);

  const auto plan_with = [&](serve::ServingOptions sopt, ComposedProviderOptions popt) {
    serve::ModelZoo zoo;
    bed.RegisterAll(zoo);
    serve::ServingEngine engine(zoo, sopt);
    ServingCardinalityProvider provider(engine, bed.keys, stats, popt);
    return planner.Plan(provider);
  };

  // The process pool size sets the shard count; the baseline runs on one
  // worker. No engine is alive across a resize.
  ThreadPool::SetGlobalThreads(1);
  const serve::ServingOptions base_opts;
  const PlanSearchResult baseline = plan_with(base_opts, {});
  ASSERT_EQ(baseline.plan.order.size(), 3u);
  EXPECT_EQ(baseline.degraded_estimates, 0u);

  // Shard count, fusion, sequential fetching and the unmemoized fan-out
  // must not move the plan by a single bit.
  {
    ThreadPool::SetGlobalThreads(4);
    const PlanSearchResult res = plan_with(base_opts, {});
    ThreadPool::SetGlobalThreads(1);
    EXPECT_EQ(res.plan.order, baseline.plan.order);
    EXPECT_EQ(res.plan.estimated_cost, baseline.plan.estimated_cost);
    EXPECT_EQ(res.plan.true_cost, baseline.plan.true_cost);
  }
  {
    serve::ServingOptions opts;
    opts.max_batch = 1;  // unfused: every request dispatches alone
    const PlanSearchResult res = plan_with(opts, {});
    EXPECT_EQ(res.plan.order, baseline.plan.order);
    EXPECT_EQ(res.plan.estimated_cost, baseline.plan.estimated_cost);
  }
  {
    ComposedProviderOptions popt;
    popt.sequential = true;
    const PlanSearchResult res = plan_with(base_opts, popt);
    EXPECT_EQ(res.plan.order, baseline.plan.order);
    EXPECT_EQ(res.plan.estimated_cost, baseline.plan.estimated_cost);
  }
  {
    ComposedProviderOptions popt;
    popt.memoize = false;  // the raw per-subset fan-out
    const PlanSearchResult res = plan_with(base_opts, popt);
    EXPECT_GT(res.subset_requests, baseline.subset_requests - 1);
    EXPECT_EQ(res.plan.order, baseline.plan.order);
    EXPECT_EQ(res.plan.estimated_cost, baseline.plan.estimated_cost);
  }
  ThreadPool::SetGlobalThreads(0);
}

TEST_F(PlanCostTest, ChosenPlanBitwiseIdenticalAcrossSimdTiers) {
  PlanBed bed("simd");
  const StarJoinQuery star = bed.MakeStar(9);
  JoinOrderPlanner planner(star);
  const JoinKeyStats stats(star.tables, star.join_col);

  const auto plan_once = [&]() {
    serve::ModelZoo zoo;
    bed.RegisterAll(zoo);
    serve::ServingEngine engine(zoo);
    ServingCardinalityProvider provider(engine, bed.keys, stats);
    return planner.Plan(provider);
  };

  const std::string original = tensor::simd::ActiveIsaName();
  ASSERT_TRUE(tensor::simd::ForceIsa("scalar"));
  const PlanSearchResult scalar_res = plan_once();
  for (const char* tier : {"avx2", "avx512"}) {
    if (!tensor::simd::ForceIsa(tier)) continue;  // tier not supported here
    const PlanSearchResult res = plan_once();
    EXPECT_EQ(res.plan.order, scalar_res.plan.order) << tier;
    EXPECT_EQ(res.plan.estimated_cost, scalar_res.plan.estimated_cost) << tier;
  }
  EXPECT_TRUE(tensor::simd::ForceIsa(original));
}

// ---------------------------------------------------------------------------
// Remote planning over DuetRpc
// ---------------------------------------------------------------------------

TEST_F(PlanCostTest, RemotePlannerMatchesInProcessBitwise) {
  PlanBed bed("remote");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingEngine engine(zoo);
  net::NetServer server(engine);
  const net::WireStatus started = server.Start();
  ASSERT_TRUE(started.ok) << started.error;
  net::RpcClient client;
  const net::WireStatus connected = client.Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok) << connected.error;

  const StarJoinQuery star = bed.MakeStar(11);
  JoinOrderPlanner planner(star);
  const JoinKeyStats stats(star.tables, star.join_col);

  ServingCardinalityProvider local(engine, bed.keys, stats);
  RemoteCardinalityProvider remote(client, bed.keys, stats);
  const PlanSearchResult local_res = planner.Plan(local);
  const PlanSearchResult remote_res = planner.Plan(remote);

  EXPECT_EQ(remote_res.degraded_estimates, 0u);
  EXPECT_EQ(remote_res.plan.order, local_res.plan.order);
  EXPECT_EQ(remote_res.plan.estimated_cost, local_res.plan.estimated_cost);
  EXPECT_EQ(remote_res.plan.true_cost, local_res.plan.true_cost);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Degradation: breaker trips and expired deadlines
// ---------------------------------------------------------------------------

TEST_F(PlanCostTest, BreakerTrippedEngineDegradesPlanSearchNotCrashes) {
  if (!serve::FaultInjector::Enabled()) GTEST_SKIP() << "fault injection compiled out";
  PlanBed bed("fault");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingOptions sopt;
  sopt.breaker_threshold = 2;
  serve::ServingEngine engine(zoo, sopt);
  baselines::IndependenceEstimator fallback(bed.tables[0]);
  engine.AttachFallback(&fallback);

  serve::FaultInjector::Arm(serve::FaultPoint::kNeuralForward, 1000000);
  const StarJoinQuery star = bed.MakeStar(13);
  JoinOrderPlanner planner(star);
  ServingCardinalityProvider provider(engine, bed.keys,
                                      JoinKeyStats(star.tables, star.join_col));
  const PlanSearchResult res = planner.Plan(provider);
  serve::FaultInjector::DisarmAll();

  // The planner completes on flagged fallback estimates: valid order,
  // every estimate degraded, finite P-error.
  ASSERT_EQ(res.plan.order.size(), 3u);
  EXPECT_GT(res.degraded_estimates, 0u);
  EXPECT_EQ(res.degraded_estimates, res.subset_requests);
  const double ratio = planner.PlanCostRatio(res.plan);
  EXPECT_TRUE(std::isfinite(ratio));
  EXPECT_GE(ratio, 1.0);
  EXPECT_GT(engine.stats().fallback_served, 0u);
}

TEST_F(PlanCostTest, ExpiredDeadlinesDegradeEveryEstimateButPlanCompletes) {
  PlanBed bed("deadline");
  serve::ModelZoo zoo;
  bed.RegisterAll(zoo);
  serve::ServingOptions sopt;
  sopt.max_wait_us = 20000;  // scheduler waits far longer than the deadline
  serve::ServingEngine engine(zoo, sopt);

  ComposedProviderOptions popt;
  popt.deadline_us = 1;
  const StarJoinQuery star = bed.MakeStar(15);
  JoinOrderPlanner planner(star);
  ServingCardinalityProvider provider(engine, bed.keys,
                                      JoinKeyStats(star.tables, star.join_col), popt);
  const PlanSearchResult res = planner.Plan(provider);

  ASSERT_EQ(res.plan.order.size(), 3u);
  EXPECT_EQ(res.degraded_estimates, res.subset_requests);
  EXPECT_TRUE(std::isfinite(planner.PlanCostRatio(res.plan)));
  EXPECT_GT(engine.stats().deadline_missed, 0u);
}

// ---------------------------------------------------------------------------
// Classical provider sanity
// ---------------------------------------------------------------------------

TEST_F(PlanCostTest, ClassicalProviderPlansWithoutServingStack) {
  PlanBed bed("classical");
  const StarJoinQuery star = bed.MakeStar(19);
  JoinOrderPlanner planner(star);

  std::vector<std::unique_ptr<baselines::IndependenceEstimator>> owned;
  std::vector<query::CardinalityEstimator*> ests;
  for (const data::Table& t : bed.tables) {
    owned.push_back(std::make_unique<baselines::IndependenceEstimator>(t));
    ests.push_back(owned.back().get());
  }
  EstimatorCardinalityProvider provider(ests, JoinKeyStats(star.tables, star.join_col));
  const PlanSearchResult res = planner.Plan(provider);
  ASSERT_EQ(res.plan.order.size(), 3u);
  EXPECT_EQ(res.degraded_estimates, 0u);
  const double ratio = planner.PlanCostRatio(res.plan);
  EXPECT_TRUE(std::isfinite(ratio));
  EXPECT_GE(ratio, 1.0);
}

}  // namespace
}  // namespace duet
