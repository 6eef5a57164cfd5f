// MSCN baseline (Kipf et al., CIDR 2019; paper Sec. V-A5 #4, the
// "MSCN (bitmaps)" variant).
//
// A query-driven set model over single-table conjunctions: each predicate is
// featurized as [column one-hot | op one-hot | normalized value], embedded by
// a shared MLP and mean-pooled; a materialized-sample bitmap (bit = sample
// row satisfies the query) is embedded separately; both are concatenated and
// regressed to the min-max-normalized log selectivity. Being a pure
// regression on labeled queries, it is fast but inherits the workload-drift
// problem (paper Problem 5).
#ifndef DUET_BASELINES_MSCN_MSCN_MODEL_H_
#define DUET_BASELINES_MSCN_MSCN_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "query/estimator.h"
#include "tensor/optimizer.h"

namespace duet::baselines {

/// MSCN knobs.
struct MscnOptions {
  int64_t hidden = 64;
  /// Maximum predicates per query (set size); extra predicates are checked.
  int max_preds = 16;
  /// Materialized sample size for the bitmap feature.
  int64_t bitmap_size = 1000;
  uint64_t seed = 5;
  int epochs = 60;
  int64_t batch_size = 128;
  float learning_rate = 1e-3f;
  /// Query-masking probability (RobustMSCN, Negi et al. 2023, paper ref
  /// [45]): during training each predicate is dropped from the featurization
  /// (set features and bitmap alike) with this probability while the label
  /// stays that of the full query, teaching the regressor to stay calibrated
  /// on unfamiliar predicate combinations. 0 = plain MSCN.
  double mask_prob = 0.0;
};

/// MSCN model + estimator.
class MscnModel : public nn::Module, public query::CardinalityEstimator {
 public:
  MscnModel(const data::Table& table, MscnOptions options);

  /// Supervised training on a labeled workload. Returns per-epoch MSE.
  std::vector<double> Train(const query::Workload& workload);

  double EstimateSelectivity(const query::Query& query) override;
  std::string name() const override { return options_.mask_prob > 0 ? "RobustMSCN" : "MSCN"; }
  double SizeMB() const override { return nn::Module::SizeMB(); }

  /// Packed-weight backend for the set/bitmap/output MLPs. The class sits
  /// in both hierarchies, so both virtuals (Module's const, the
  /// estimator's non-const) forward to the same place.
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    pred_mlp_->SetInferenceBackend(backend);
    bitmap_mlp_->SetInferenceBackend(backend);
    out_mlp_->SetInferenceBackend(backend);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    static_cast<const MscnModel&>(*this).SetInferenceBackend(backend);
  }
  uint64_t CachedBytes() const override {
    return pred_mlp_->CachedBytes() + bitmap_mlp_->CachedBytes() + out_mlp_->CachedBytes();
  }
  uint64_t PackedWeightBytes() const override { return CachedBytes(); }
  nn::PlanTelemetry PlanInfo() const override {
    nn::PlanTelemetry t = pred_mlp_->PlanInfo();
    t += bitmap_mlp_->PlanInfo();
    t += out_mlp_->PlanInfo();
    return t;
  }
  uint64_t PlanCompileMicros() const override { return PlanInfo().compile_micros; }
  uint64_t PlanCacheHits() const override { return PlanInfo().cache_hits; }

 private:
  /// Featurizes queries into predicate-set tensors + bitmap tensor.
  struct Features {
    tensor::Tensor pred_feats;    // [B * S, F]
    std::vector<float> presence;  // [B * S]
    tensor::Tensor bitmaps;       // [B, bitmap_size]
  };
  Features Featurize(const std::vector<query::Query>& queries) const;

  /// Forward to normalized log-selectivity in (0, 1): [B].
  tensor::Tensor ForwardNormalized(const Features& f, int64_t batch) const;

  const data::Table& table_;
  MscnOptions options_;
  std::vector<int64_t> sample_rows_;  // materialized sample for bitmaps
  std::unique_ptr<nn::Mlp> pred_mlp_;
  std::unique_ptr<nn::Mlp> bitmap_mlp_;
  std::unique_ptr<nn::Mlp> out_mlp_;
  double log_min_;  // log(1/rows): normalization floor
};

}  // namespace duet::baselines

#endif  // DUET_BASELINES_MSCN_MSCN_MODEL_H_
