// Duet with MPSN input blocks: supports multiple predicates per column
// (paper Sec. IV-F). Each column's predicate list is embedded by an
// MpsnEmbedder into a fixed-width block; the MADE network and Algorithm 3
// estimation tail are identical to the direct-mode model.
#ifndef DUET_CORE_MPSN_MODEL_H_
#define DUET_CORE_MPSN_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/duet_model.h"
#include "core/mpsn.h"
#include "core/trainer.h"
#include "nn/made.h"
#include "query/estimator.h"
#include "tensor/optimizer.h"

namespace duet::core {

/// Options: base architecture + MPSN knobs.
struct DuetMpsnOptions {
  DuetModelOptions base;
  MpsnOptions mpsn;
};

/// Multi-predicate Duet model.
class DuetMpsnModel : public nn::Module {
 public:
  DuetMpsnModel(const data::Table& table, DuetMpsnOptions options);

  /// Converts queries into slot form. Checks every column carries at most
  /// mpsn.max_preds predicates.
  MultiPredBatch EncodeQueries(const std::vector<query::Query>& queries) const;

  /// Cross-entropy against anchor labels (training).
  tensor::Tensor DataLoss(const MultiPredBatch& batch) const;

  /// Differentiable batched Algorithm 3.
  tensor::Tensor SelectivityBatch(const std::vector<query::Query>& queries) const;

  /// Deterministic single-query estimation.
  double EstimateSelectivity(const query::Query& query) const;

  /// Batched inference: one embed + forward pass for all queries; matches
  /// the per-query path exactly (rows are batch-size independent).
  std::vector<double> EstimateSelectivityBatch(const std::vector<query::Query>& queries) const;

  const data::Table& table() const { return table_; }
  const DuetInputEncoder& encoder() const { return encoder_; }
  const MpsnEmbedder& embedder() const { return *embedder_; }
  const nn::Made& made() const { return *made_; }
  const DuetMpsnOptions& options() const { return options_; }

  /// Packed-weight backend for the no-grad MADE forwards (the MPSN
  /// embedder's merged per-column layers are raw tensors, untouched by
  /// backend selection); see tensor/packed_weights.h.
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    made_->SetInferenceBackend(backend);
  }
  void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const override {
    made_->FreezeInferenceCaches(stamp);
  }
  uint64_t CachedBytes() const override { return made_->CachedBytes(); }
  nn::PlanTelemetry PlanInfo() const override { return made_->PlanInfo(); }

 private:
  /// SelectivityBatch body with the per-query ranges already derived (they
  /// feed the zero-out mask); lets callers that also need the ranges avoid
  /// deriving them twice.
  tensor::Tensor SelectivityBatchFromRanges(
      const std::vector<query::Query>& queries,
      const std::vector<std::vector<query::CodeRange>>& all_ranges) const;

  const data::Table& table_;
  DuetMpsnOptions options_;
  DuetInputEncoder encoder_;
  std::unique_ptr<MpsnEmbedder> embedder_;
  std::unique_ptr<nn::Made> made_;
};

/// Trainer for the MPSN model: per step it draws `max_preds` independent
/// Algorithm 1 batches over the same anchors, so the per-column predicate
/// count is naturally variable, then optimizes the same hybrid loss as
/// DuetTrainer.
class MpsnTrainer {
 public:
  MpsnTrainer(DuetMpsnModel& model, TrainOptions options);

  std::vector<EpochStats> Train(const std::function<void(const EpochStats&)>& on_epoch = {});
  EpochStats TrainEpoch(int epoch_index);

 private:
  DuetMpsnModel& model_;
  TrainOptions options_;
  VirtualTupleSampler sampler_;
  tensor::Adam optimizer_;
  Rng rng_;
  size_t workload_cursor_ = 0;
};

/// CardinalityEstimator adapter.
class DuetMpsnEstimator : public query::CardinalityEstimator {
 public:
  DuetMpsnEstimator(const DuetMpsnModel& model, std::string name = "Duet-MPSN")
      : model_(model), name_(std::move(name)) {}

  double EstimateSelectivity(const query::Query& query) override {
    return model_.EstimateSelectivity(query);
  }
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<query::Query>& queries) override {
    return model_.EstimateSelectivityBatch(queries);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    model_.SetInferenceBackend(backend);
  }
  void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) override {
    model_.FreezeInferenceCaches(stamp);
  }
  uint64_t PackedWeightBytes() const override { return model_.CachedBytes(); }
  uint64_t PlanCompileMicros() const override { return model_.PlanInfo().compile_micros; }
  uint64_t PlanCacheHits() const override { return model_.PlanInfo().cache_hits; }
  std::string name() const override { return name_; }
  double SizeMB() const override { return model_.SizeMB(); }

 private:
  const DuetMpsnModel& model_;
  std::string name_;
};

}  // namespace duet::core

#endif  // DUET_CORE_MPSN_MODEL_H_
