// LW-XGB and LW-NN: lightweight query-driven selectivity models
// (Dutt et al., VLDB 2019; cited as [11] in the paper's introduction).
//
// Both featurize a conjunctive range query as, per column, the normalized
// code interval [lo, hi) plus a constrained flag, and regress
// log2(selectivity) — LW-XGB through gradient-boosted trees (src/ml/gbdt),
// LW-NN through a small MLP on the engine. Being query-driven, they carry
// the workload-drift weakness the paper's Problem (5) describes: accurate
// on In-Q, degraded on Rand-Q — which is exactly the contrast the accuracy
// benches surface.
#ifndef DUET_BASELINES_LW_LW_MODELS_H_
#define DUET_BASELINES_LW_LW_MODELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/table.h"
#include "ml/gbdt.h"
#include "nn/layers.h"
#include "query/estimator.h"
#include "query/query.h"

namespace duet::baselines {

/// Shared featurization: 3 floats per column = {lo/ndv, hi/ndv, constrained}.
/// Unconstrained columns encode the full interval [0, 1] with flag 0.
class LwFeaturizer {
 public:
  explicit LwFeaturizer(const data::Table& table);

  int64_t width() const { return 3 * num_columns_; }

  /// Writes width() floats for `query` into dst.
  void Encode(const query::Query& query, float* dst) const;

  /// Feature matrix for a whole workload.
  ml::Matrix EncodeWorkload(const std::vector<query::Query>& queries) const;

 private:
  const data::Table& table_;
  int64_t num_columns_;
};

/// Clipped log2 selectivity target; estimates are floored at one tuple.
float LwLogSelectivity(uint64_t cardinality, int64_t num_rows);

/// LW-XGB configuration.
struct LwXgbOptions {
  ml::GbdtOptions gbdt;
};

/// Gradient-boosted-tree selectivity regressor.
class LwXgbEstimator : public query::CardinalityEstimator {
 public:
  LwXgbEstimator(const data::Table& table, LwXgbOptions options = {});

  /// Fits on a labeled workload.
  void Train(const query::Workload& workload);

  double EstimateSelectivity(const query::Query& query) override;
  std::string name() const override { return "LW-XGB"; }
  double SizeMB() const override { return gbdt_.SizeMB(); }

  const ml::GbdtRegressor& model() const { return gbdt_; }

 private:
  const data::Table& table_;
  LwFeaturizer featurizer_;
  ml::GbdtRegressor gbdt_;
};

/// LW-NN configuration.
struct LwNnOptions {
  std::vector<int64_t> hidden_sizes = {64, 64};
  int epochs = 60;
  int64_t batch_size = 128;
  float learning_rate = 1e-3f;
  uint64_t seed = 17;
};

/// MLP selectivity regressor on the same features.
class LwNnEstimator : public nn::Module, public query::CardinalityEstimator {
 public:
  LwNnEstimator(const data::Table& table, LwNnOptions options = {});

  /// Fits on a labeled workload; returns the per-epoch training MSE.
  std::vector<double> Train(const query::Workload& workload);

  double EstimateSelectivity(const query::Query& query) override;
  std::string name() const override { return "LW-NN"; }
  double SizeMB() const override { return Module::SizeMB(); }

  /// Packed-weight backend for the regression MLP (both hierarchies'
  /// virtuals, see MscnModel).
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    mlp_->SetInferenceBackend(backend);
  }
  void SetInferenceBackend(tensor::WeightBackend backend) override {
    static_cast<const LwNnEstimator&>(*this).SetInferenceBackend(backend);
  }
  uint64_t CachedBytes() const override { return mlp_->CachedBytes(); }
  uint64_t PackedWeightBytes() const override { return CachedBytes(); }
  nn::PlanTelemetry PlanInfo() const override { return mlp_->PlanInfo(); }
  uint64_t PlanCompileMicros() const override { return PlanInfo().compile_micros; }
  uint64_t PlanCacheHits() const override { return PlanInfo().cache_hits; }

 private:
  const data::Table& table_;
  LwFeaturizer featurizer_;
  LwNnOptions options_;
  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace duet::baselines

#endif  // DUET_BASELINES_LW_LW_MODELS_H_
