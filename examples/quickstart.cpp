// Quickstart: build a table, train Duet for a few epochs, estimate queries.
//
// This is the smallest end-to-end use of the public API:
//   1. data::Table        - dictionary-encoded relation (here: synthetic)
//   2. core::DuetModel    - the predicate-conditioned autoregressive model
//   3. core::DuetTrainer  - Algorithm 2 (data-driven here; see the
//                           hybrid_finetune example for query feedback)
//   4. estimator.EstimateCardinalityBatch(queries) - Algorithm 3 through
//      the batch-first API: one forward pass for ALL queries (the
//      recommended entry point; results match per-query estimation
//      exactly, see src/query/estimator.h).
#include <cstdio>
#include <vector>

#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "query/evaluator.h"
#include "query/workload.h"

int main() {
  using namespace duet;

  // A Census-like table: 14 columns, skewed and correlated.
  data::Table table = data::CensusLike(/*rows=*/8000, /*seed=*/42);
  std::printf("table %s: %lld rows, %d columns\n", table.name().c_str(),
              static_cast<long long>(table.num_rows()), table.num_columns());

  // Duet with a 2-block ResMADE (the paper's Census architecture, scaled).
  core::DuetModelOptions options;
  options.hidden_sizes = {64, 64};
  options.residual = true;
  core::DuetModel model(table, options);
  std::printf("model: %lld parameters (%.2f MB)\n",
              static_cast<long long>(model.NumParams()), model.SizeMB());

  core::TrainOptions train;
  train.epochs = 8;
  train.batch_size = 256;
  core::DuetTrainer trainer(model, train);
  trainer.Train([](const core::EpochStats& e) {
    std::printf("epoch %d: L_data=%.4f (%.0f tuples/s)\n", e.epoch + 1, e.data_loss,
                e.tuples_per_second);
  });

  // Estimate a few random range queries and compare with the exact count.
  // All queries go through one batched call — one forward pass instead of
  // one per query — which is how the estimator should be driven in serving
  // settings (and what bench_table3_throughput measures).
  query::WorkloadSpec spec;
  spec.num_queries = 8;
  spec.seed = 7;
  const query::Workload workload = query::WorkloadGenerator(table, spec).Generate();
  std::vector<query::Query> queries;
  queries.reserve(workload.size());
  for (const auto& lq : workload) queries.push_back(lq.query);

  core::DuetEstimator estimator(model);
  const std::vector<double> estimates =
      estimator.EstimateCardinalityBatch(queries, table.num_rows());

  // The first no-grad forward compiled the model into an inference plan
  // (a flat packed-op program — see docs/architecture.md §5). This is the
  // only inference path; the footprint below is what the compiled weights
  // cost on top of the fp32 parameters.
  std::printf("inference plan: %.1f KiB compiled, %llu compile(s), %llu cache hit(s)\n",
              static_cast<double>(estimator.PackedWeightBytes()) / 1024.0,
              static_cast<unsigned long long>(model.PlanInfo().compiles),
              static_cast<unsigned long long>(estimator.PlanCacheHits()));

  std::printf("\n%-52s %10s %10s %8s\n", "query", "estimate", "actual", "q-error");
  for (size_t i = 0; i < workload.size(); ++i) {
    const auto& lq = workload[i];
    const double err = query::QError(estimates[i], static_cast<double>(lq.cardinality));
    std::string text = lq.query.DebugString(table);
    if (text.size() > 50) text = text.substr(0, 47) + "...";
    std::printf("%-52s %10.0f %10llu %8.2f\n", text.c_str(), estimates[i],
                static_cast<unsigned long long>(lq.cardinality), err);
  }
  return 0;
}
