#include "core/finetune.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "query/estimator.h"
#include "serve/fault_injector.h"

namespace duet::core {

namespace {

/// The model's Q-error on every query of a workload, from one batched
/// forward (bitwise the per-query answers: the batch-invariance contract).
std::vector<double> QErrors(const DuetModel& model, const query::Workload& workload) {
  std::vector<query::Query> queries;
  queries.reserve(workload.size());
  for (const query::LabeledQuery& lq : workload) queries.push_back(lq.query);
  const std::vector<double> sels = model.EstimateSelectivityBatch(queries);
  const double rows = static_cast<double>(model.table().num_rows());
  std::vector<double> errors;
  errors.reserve(sels.size());
  for (size_t i = 0; i < sels.size(); ++i) {
    const double est = std::max(1.0, sels[i] * rows);
    errors.push_back(query::QError(est, static_cast<double>(workload[i].cardinality)));
  }
  return errors;
}

/// Mean and max Q-error of the model over a workload.
std::pair<double, double> Score(const DuetModel& model, const query::Workload& workload) {
  double sum = 0.0, mx = 0.0;
  for (const double err : QErrors(model, workload)) {
    sum += err;
    mx = std::max(mx, err);
  }
  return {workload.empty() ? 0.0 : sum / static_cast<double>(workload.size()), mx};
}

}  // namespace

query::Workload CollectHighErrorQueries(const DuetModel& model, const query::Workload& served,
                                        const FineTuneOptions& options) {
  DUET_CHECK_GT(options.qerror_threshold, 1.0);
  DUET_CHECK_GT(options.max_queries, 0);
  const std::vector<double> qerrors = QErrors(model, served);
  std::vector<std::pair<double, size_t>> errors;  // (qerror, index)
  for (size_t i = 0; i < served.size(); ++i) {
    if (qerrors[i] > options.qerror_threshold) errors.emplace_back(qerrors[i], i);
  }
  std::sort(errors.begin(), errors.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (static_cast<int>(errors.size()) > options.max_queries) {
    errors.resize(static_cast<size_t>(options.max_queries));
  }
  query::Workload collected;
  collected.reserve(errors.size());
  for (const auto& [err, idx] : errors) collected.push_back(served[idx]);
  return collected;
}

FineTuneReport FineTune(DuetModel& model, const query::Workload& served,
                        const FineTuneOptions& options) {
  FineTuneReport report;
  report.collected = CollectHighErrorQueries(model, served, options);
  if (report.collected.empty()) return report;

  std::tie(report.before_mean, report.before_max) = Score(model, report.collected);

  // The whole fine-tuning round mutates model parameters; the RAII guard
  // bumps tensor::ParameterVersion() when it ends (even on an early abort),
  // so post-tune estimation can never serve packs of the pre-tune weights —
  // without relying on every inner code path remembering the ad-hoc bump.
  tensor::ParameterMutationGuard mutation;

  TrainOptions topt;
  topt.epochs = options.epochs;
  topt.batch_size = options.batch_size;
  topt.learning_rate = options.learning_rate;
  topt.lambda = options.lambda;
  topt.expand = options.expand;
  topt.wildcard_prob = options.wildcard_prob;
  topt.max_rows_per_epoch = options.max_anchor_rows;
  topt.train_workload = &report.collected;
  if (options.use_importance_sampling) topt.importance_workload = &report.collected;
  topt.seed = options.seed;
  DuetTrainer trainer(model, topt);
  report.epochs = trainer.Train();

  std::tie(report.after_mean, report.after_max) = Score(model, report.collected);
  return report;
}

std::unique_ptr<DuetModel> CloneModel(const DuetModel& model) {
  auto clone = std::make_unique<DuetModel>(model.table(), model.options());
  // Direct tensor-to-tensor copy (Module::CopyParametersFrom): bitwise what
  // the old Save/Load round-trip produced, without materializing a
  // serialized image of the model — a clone transiently costs one model of
  // fresh memory, not two, which is what bounds an update round's peak at
  // zoo scale (UpdateWorkerStats::clone_peak_bytes). CopyParametersFrom
  // bumps the version counter, which the clone's cold caches key on — the
  // source's caches are untouched, and a pinned source ignores the bump
  // entirely.
  clone->CopyParametersFrom(model);
  return clone;
}

double MedianQError(const DuetModel& model, const query::Workload& workload) {
  if (workload.empty()) return 0.0;
  std::vector<query::Query> queries;
  queries.reserve(workload.size());
  for (const query::LabeledQuery& lq : workload) queries.push_back(lq.query);
  const std::vector<double> sels = model.EstimateSelectivityBatch(queries);
  const double rows = static_cast<double>(model.table().num_rows());
  std::vector<double> qerrs;
  qerrs.reserve(sels.size());
  for (size_t i = 0; i < sels.size(); ++i) {
    // A NaN/inf estimate means the model diverged; ClampSelectivity would
    // quietly map it to 0 (q-error == actual), which can look *good* on
    // low-cardinality holdouts. Score it as infinitely wrong instead so the
    // acceptance gate can never publish a divergent candidate.
    if (!std::isfinite(sels[i])) {
      qerrs.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const double est =
        std::max(1.0, query::CardinalityEstimator::ClampSelectivity(sels[i]) * rows);
    qerrs.push_back(query::QError(est, static_cast<double>(workload[i].cardinality)));
  }
  std::sort(qerrs.begin(), qerrs.end());
  return qerrs[qerrs.size() / 2];
}

OnlineUpdateResult CloneAndFineTune(const DuetModel& base, const query::Workload& feedback,
                                    const query::Workload& holdout,
                                    const OnlineUpdateOptions& options) {
  DUET_CHECK_GE(options.max_regression, 1.0);
  OnlineUpdateResult result;
  result.model = CloneModel(base);
  result.holdout_before = MedianQError(*result.model, holdout);
  result.report = FineTune(*result.model, feedback, options.finetune);
  // Fault point: a divergent fine-tune round (bad feedback, too-hot learning
  // rate) drives the candidate's weights to NaN. The holdout gate below must
  // catch it and roll back — the poisoned candidate can never publish.
  if (serve::FaultInjector::ShouldFail(serve::FaultPoint::kFineTuneDiverge)) {
    tensor::ParameterMutationGuard mutation;
    for (const tensor::Tensor& p : result.model->parameters()) {
      tensor::Tensor param = p;  // shared handle onto the same storage
      float* data = param.data();
      for (int64_t i = 0; i < param.numel(); ++i) {
        data[i] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  result.holdout_after = MedianQError(*result.model, holdout);
  // The gate validates on pairs the tuning never saw: a fine-tune that only
  // memorized a poisoned/unrepresentative feedback batch regresses here and
  // is rolled back. An empty collection means the clone equals the base —
  // nothing worth publishing either.
  result.accepted = !result.report.collected.empty() && !holdout.empty() &&
                    std::isfinite(result.holdout_after) &&
                    result.holdout_after <= result.holdout_before * options.max_regression;
  return result;
}

}  // namespace duet::core
