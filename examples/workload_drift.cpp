// Workload drift, served live (the paper's Problem 5 plus its Sec. IV-A
// deployment story).
//
// Duet is trained on a bounded, skewed workload and then serves a drifted
// random workload — through the zero-downtime serving stack this time:
// a serve::ModelRegistry holds the model as an immutable snapshot, a
// serve::ServingEngine dispatches batches against it, and a background
// serve::UpdateWorker receives the true cardinalities the "execution
// engine" observes for served queries, fine-tunes a clone on exactly that
// feedback, validates it on a holdout slice, and hot-swaps the improved
// snapshot in while traffic keeps flowing. No quiesce anywhere: the
// before/after median q-error printed at the end is measured on the same
// engine across a live snapshot swap. (Compare examples/hybrid_finetune.cpp,
// the offline collect-then-tune flow this example supersedes for serving;
// see docs/serving.md for the lifecycle.)
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "query/workload.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"

int main() {
  using namespace duet;
  data::Table table = data::CensusLike(/*rows=*/6000, /*seed=*/42);
  const double rows = static_cast<double>(table.num_rows());

  // Training workload: gamma-skewed predicate counts, bounded column
  // (only 1% of the largest column's values ever appear) — paper Sec. V-A2.
  query::WorkloadSpec train_spec;
  train_spec.num_queries = 800;
  train_spec.seed = 42;
  train_spec.gamma_num_predicates = true;
  train_spec.bounded_column = table.LargestNdvColumn();
  const query::Workload train_wl = query::WorkloadGenerator(table, train_spec).Generate();

  // The drifted workload the service will actually face (Rand-Q flavour).
  query::WorkloadSpec drift_spec;
  drift_spec.num_queries = 240;
  drift_spec.seed = 1234;
  const query::Workload drift_wl = query::WorkloadGenerator(table, drift_spec).Generate();
  std::vector<query::Query> drift_queries;
  drift_queries.reserve(drift_wl.size());
  for (const auto& lq : drift_wl) drift_queries.push_back(lq.query);

  // --- Train, then hand the model to the registry as snapshot #1 ---
  core::DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  mopt.residual = true;
  auto duet = std::make_unique<core::DuetModel>(table, mopt);
  core::TrainOptions topt;
  topt.epochs = 4;  // a young deployment: accurate in-distribution, with
                    // headroom for the online updates to close under drift
  topt.batch_size = 256;
  topt.train_workload = &train_wl;
  topt.lambda = 0.1f;
  core::DuetTrainer(*duet, topt).Train();

  serve::ModelRegistry registry(std::move(duet));
  serve::ServingEngine engine(registry);

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 128;
  wopt.update.finetune.qerror_threshold = 1.2;
  wopt.update.finetune.epochs = 2;
  wopt.update.finetune.max_anchor_rows = 1024;  // bounded background cost
  wopt.update.max_regression = 1.1;
  serve::UpdateWorker worker(registry, wopt);
  worker.Start();
  engine.AttachUpdateWorker(&worker);

  auto median_qerror_via_engine = [&](uint64_t* snapshot_id) {
    const std::vector<double> sels = engine.EstimateBatch(drift_queries, snapshot_id);
    std::vector<double> qerrs;
    qerrs.reserve(sels.size());
    for (size_t i = 0; i < sels.size(); ++i) {
      const double est = std::max(1.0, sels[i] * rows);
      qerrs.push_back(query::QError(est, static_cast<double>(drift_wl[i].cardinality)));
    }
    return ErrorSummary::FromValues(qerrs);
  };

  std::printf("Workload drift, served live (registry + hot swap + background fine-tune)\n\n");
  uint64_t snapshot_before = 0;
  const ErrorSummary before = median_qerror_via_engine(&snapshot_before);
  std::printf("drifted workload on snapshot %llu:  median %.2f  p99 %.2f  max %.2f\n",
              static_cast<unsigned long long>(snapshot_before), before.median, before.p99,
              before.max);

  // The execution engine "runs" the served queries and reports what it
  // observed; the background worker takes it from there.
  for (const auto& lq : drift_wl) {
    engine.ReportObserved(lq.query, static_cast<double>(lq.cardinality));
  }
  std::printf("reported %zu observed cardinalities; serving continues while the "
              "background worker adapts...\n",
              drift_wl.size());

  // Keep traffic flowing until the worker has published (or given up) —
  // this loop is the "no quiesce" point: it never stops dispatching.
  for (int i = 0; i < 600; ++i) {
    engine.EstimateBatch(drift_queries);
    const serve::UpdateWorkerStats ws = worker.stats();
    if (ws.rounds > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  worker.Stop();
  // The worker (declared after the engine) is destroyed first; detach so
  // the engine never holds a dangling feedback pointer during teardown.
  engine.AttachUpdateWorker(nullptr);

  uint64_t snapshot_after = 0;
  const ErrorSummary after = median_qerror_via_engine(&snapshot_after);
  const serve::UpdateWorkerStats ws = worker.stats();
  const serve::RegistryStats rs = registry.stats();
  std::printf("drifted workload on snapshot %llu:  median %.2f  p99 %.2f  max %.2f\n\n",
              static_cast<unsigned long long>(snapshot_after), after.median, after.p99,
              after.max);
  std::printf("update worker: %llu published, %llu rolled back, %llu skipped "
              "(holdout median %.2f -> %.2f); last swap %.1f us\n",
              static_cast<unsigned long long>(ws.published),
              static_cast<unsigned long long>(ws.rolled_back),
              static_cast<unsigned long long>(ws.skipped), ws.last_holdout_before,
              ws.last_holdout_after, rs.last_swap_micros);
  std::printf("median q-error before/after the live update: %.2f -> %.2f\n", before.median,
              after.median);
  std::printf("\nExpected: the published snapshot improves (or at least holds) the drifted\n"
              "median while serving never paused; a rolled-back round leaves the serving\n"
              "snapshot — and its estimates — bitwise untouched.\n");
  return 0;
}
