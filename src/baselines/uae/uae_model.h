// UAE baseline (Wu & Cong, SIGMOD 2021; paper Sec. V-A5 #7).
//
// UAE keeps Naru's architecture and progressive-sampling inference but makes
// the sampling differentiable with the Gumbel-Softmax trick, so labeled
// queries can supervise the autoregressive model (hybrid training). The
// cost is the paper's Problem 3: each training query is expanded into
// `train_samples` Monte-Carlo paths whose whole activation history must be
// retained for backprop — the effective batch is bs x s, and at the paper's
// settings (bs=2048, s=2000) this exceeds a 48 GB GPU. The trainer models
// that memory requirement explicitly and reports OOM instead of thrashing.
#ifndef DUET_BASELINES_UAE_UAE_MODEL_H_
#define DUET_BASELINES_UAE_UAE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/naru/naru_model.h"
#include "core/trainer.h"
#include "query/estimator.h"
#include "tensor/optimizer.h"

namespace duet::baselines {

/// UAE = Naru + hybrid-training knobs.
struct UaeOptions {
  NaruOptions naru;
  /// Gumbel-Softmax sample paths per training query (paper-scale is 2000).
  int train_samples = 16;
  /// Gumbel-Softmax temperature.
  float gumbel_tau = 1.0f;
  /// Weight of the (unmapped) Q-error query loss. UAE scales the raw
  /// Q-error by a single factor; the huge early values destabilize training
  /// (reproduced in Fig. 3 / the Kddcup98 gradient explosion).
  float query_weight = 1.0f;
  /// Modeled accelerator memory budget; training whose retained-activation
  /// estimate exceeds this reports OOM (Table III).
  double memory_budget_mb = 4096.0;
};

/// UAE model: owns a NaruModel and adds the differentiable estimator.
class UaeModel {
 public:
  UaeModel(const data::Table& table, UaeOptions options);

  /// Differentiable selectivity via Gumbel-Softmax progressive sampling.
  /// Returns [num_queries]; the computation graph spans one forward pass per
  /// column and train_samples paths per query.
  tensor::Tensor SelectivityBatchDifferentiable(const std::vector<query::Query>& queries,
                                                Rng& rng) const;

  /// Estimated retained-activation memory (MB) for one hybrid step with the
  /// given query batch size (see header comment).
  double EstimatedTrainMemoryMB(int64_t query_batch) const;

  NaruModel& naru() { return *naru_; }
  const NaruModel& naru() const { return *naru_; }
  const UaeOptions& options() const { return options_; }
  const data::Table& table() const { return naru_->table(); }

 private:
  UaeOptions options_;
  std::unique_ptr<NaruModel> naru_;
};

/// Hybrid trainer; mirrors Algorithm 2's loop with UAE's loss
/// L = L_data + w * QError (unmapped).
class UaeTrainer {
 public:
  UaeTrainer(UaeModel& model, core::TrainOptions options);

  std::vector<core::EpochStats> Train(
      const std::function<void(const core::EpochStats&)>& on_epoch = {});
  core::EpochStats TrainEpoch(int epoch_index);

  /// True if the memory model rejected the configuration.
  bool oom() const { return oom_; }

 private:
  UaeModel& model_;
  core::TrainOptions options_;
  tensor::Adam optimizer_;
  Rng rng_;
  size_t workload_cursor_ = 0;
  bool oom_ = false;
};

/// Estimator adapter: UAE inference is Naru's progressive sampling, with
/// the same deterministic per-query seeding (batch == loop).
class UaeEstimator : public query::CardinalityEstimator {
 public:
  UaeEstimator(const UaeModel& model, std::string name = "UAE", uint64_t seed = 19)
      : model_(model), name_(std::move(name)), seed_(seed) {}

  double EstimateSelectivity(const query::Query& query) override {
    return model_.naru().EstimateSelectivitySeeded(query,
                                                  DeterministicQuerySeed(query, seed_));
  }
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<query::Query>& queries) override {
    return model_.naru().EstimateSelectivityBatch(queries, seed_);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    model_.naru().SetInferenceBackend(backend);
  }
  uint64_t PackedWeightBytes() const override { return model_.naru().CachedBytes(); }
  uint64_t PlanCompileMicros() const override {
    return model_.naru().PlanInfo().compile_micros;
  }
  uint64_t PlanCacheHits() const override { return model_.naru().PlanInfo().cache_hits; }
  std::string name() const override { return name_; }
  double SizeMB() const override { return model_.naru().SizeMB(); }

 private:
  const UaeModel& model_;
  std::string name_;
  uint64_t seed_;
};

}  // namespace duet::baselines

#endif  // DUET_BASELINES_UAE_UAE_MODEL_H_
