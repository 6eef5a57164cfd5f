// Naru baseline (Yang et al., VLDB 2020; paper Sec. V-A5 #6).
//
// A MADE/ResMADE autoregressive model over *tuple values*: input block i is
// the (wildcard-skippable) encoding of column i's value, output block i the
// distribution P(C_i | v_<i). Range queries are answered with progressive
// sampling: one forward pass per constrained column, each over `num_samples`
// Monte-Carlo samples — the O(n) inference cost, sampling variance and
// long-tail behaviour that Duet's single-pass design removes.
#ifndef DUET_BASELINES_NARU_NARU_MODEL_H_
#define DUET_BASELINES_NARU_NARU_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/duet_model.h"
#include "core/encoding.h"
#include "core/trainer.h"
#include "nn/made.h"
#include "nn/module.h"
#include "query/estimator.h"
#include "tensor/optimizer.h"

namespace duet::baselines {

/// Naru architecture + inference knobs.
struct NaruOptions {
  std::vector<int64_t> hidden_sizes = {256, 256};
  bool residual = false;
  core::EncodingOptions encoding;
  uint64_t seed = 1;
  /// Progressive-sampling budget per estimation (paper uses 2000; scaled
  /// default keeps CPU benches fast — it is a flag everywhere).
  int num_samples = 200;
  /// Wildcard-skipping probability during training.
  double wildcard_prob = 0.3;
};

/// Mixes a query's structure (columns, operators, value bits) into `base`;
/// the estimator adapters seed each query's progressive-sampling Rng with
/// this, which keeps single-query and batched estimation bit-identical.
uint64_t DeterministicQuerySeed(const query::Query& query, uint64_t base);

/// Naru model + progressive-sampling estimator.
class NaruModel : public nn::Module {
 public:
  NaruModel(const data::Table& table, NaruOptions options);

  // ----- training -----

  /// Cross-entropy of the anchor tuples with wildcard-skipping masking.
  /// Deterministic in `seed`.
  tensor::Tensor DataLoss(const std::vector<int64_t>& anchor_rows, uint64_t seed) const;

  // ----- inference -----

  /// Progressive sampling (unbiased, random): one forward pass per
  /// constrained column over options.num_samples samples.
  double EstimateSelectivity(const query::Query& query, Rng& rng) const;

  /// Deterministic wrapper: fresh Rng seeded from the query contents (the
  /// variance across seeds is measured by the stability experiment).
  double EstimateSelectivitySeeded(const query::Query& query, uint64_t seed) const;

  /// Batched progressive sampling. Queries share per-column rounds: all
  /// still-active queries constraining column c have their sample sets
  /// encoded into one forward pass, so a batch of B queries costs at most
  /// `num_columns` forwards instead of sum_q(constrained_q). Each query
  /// draws from its own Rng seeded with DeterministicQuerySeed(q, seed_base)
  /// in the same order as the scalar path, so results match per-query
  /// estimation exactly.
  std::vector<double> EstimateSelectivityBatch(const std::vector<query::Query>& queries,
                                               uint64_t seed_base) const;

  // ----- shared internals (UAE reuses these) -----

  /// Encodes a batch of (possibly wildcarded) code rows; codes: [b * N],
  /// -1 = wildcard.
  tensor::Tensor EncodeCodes(const std::vector<int32_t>& codes, int64_t batch) const;

  tensor::Tensor ForwardLogits(const tensor::Tensor& x) const { return made_->Forward(x); }

  const data::Table& table() const { return table_; }
  const core::NaruInputEncoder& encoder() const { return encoder_; }
  const nn::Made& made() const { return *made_; }

  /// Packed-weight backend for the no-grad sampling forwards (see
  /// tensor/packed_weights.h); forwarded to the MADE core.
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    made_->SetInferenceBackend(backend);
  }
  uint64_t CachedBytes() const override { return made_->CachedBytes(); }
  nn::PlanTelemetry PlanInfo() const override { return made_->PlanInfo(); }
  const NaruOptions& options() const { return options_; }
  /// Profiling accumulators. Read/Clear only while no estimation is in
  /// flight; accumulation is internally locked (serving-engine contract).
  core::PhaseTimes& phase_times() const { return phase_times_; }

 private:
  /// Locked accumulation into one PhaseTimes field.
  void AddPhaseTime(double core::PhaseTimes::*field, double ms) const {
    std::lock_guard<std::mutex> lock(*phase_mu_);
    phase_times_.*field += ms;
  }

  const data::Table& table_;
  NaruOptions options_;
  core::NaruInputEncoder encoder_;
  std::unique_ptr<nn::Made> made_;
  // Heap-held so the model stays movable.
  mutable std::unique_ptr<std::mutex> phase_mu_ = std::make_unique<std::mutex>();
  mutable core::PhaseTimes phase_times_;
};

/// Data-driven trainer for Naru (maximum likelihood over tuples).
class NaruTrainer {
 public:
  NaruTrainer(NaruModel& model, core::TrainOptions options);

  std::vector<core::EpochStats> Train(
      const std::function<void(const core::EpochStats&)>& on_epoch = {});
  core::EpochStats TrainEpoch(int epoch_index);

 private:
  NaruModel& model_;
  core::TrainOptions options_;
  tensor::Adam optimizer_;
  Rng rng_;
};

/// CardinalityEstimator adapter (deterministic per-query seeding, so the
/// same query always gets the same estimate and batching is order-free).
class NaruEstimator : public query::CardinalityEstimator {
 public:
  NaruEstimator(const NaruModel& model, std::string name = "Naru", uint64_t seed = 17)
      : model_(model), name_(std::move(name)), seed_(seed) {}

  double EstimateSelectivity(const query::Query& query) override {
    return model_.EstimateSelectivitySeeded(query, DeterministicQuerySeed(query, seed_));
  }
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<query::Query>& queries) override {
    return model_.EstimateSelectivityBatch(queries, seed_);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    model_.SetInferenceBackend(backend);
  }
  uint64_t PackedWeightBytes() const override { return model_.CachedBytes(); }
  uint64_t PlanCompileMicros() const override { return model_.PlanInfo().compile_micros; }
  uint64_t PlanCacheHits() const override { return model_.PlanInfo().cache_hits; }
  std::string name() const override { return name_; }
  double SizeMB() const override { return model_.SizeMB(); }

 private:
  const NaruModel& model_;
  std::string name_;
  uint64_t seed_;
};

}  // namespace duet::baselines

#endif  // DUET_BASELINES_NARU_NARU_MODEL_H_
