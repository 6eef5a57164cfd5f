// The Duet model: a predicate-conditioned autoregressive network
// (paper Sec. IV) plus the sampling-free estimator (Algorithm 3).
//
// The MADE network consumes one predicate block per column
// ([value_enc | op one-hot], all zeros for wildcards) and emits one logit
// block per column over that column's distinct values. Selectivity of a
// query is the product over columns of the predicate-mask-weighted softmax
// mass of each block — a single forward pass, no sampling, deterministic,
// and differentiable end to end (which is what enables hybrid training).
//
// This class covers the paper's main configuration: at most one predicate
// per column ("direct mode"). Multi-predicate support via MPSN lives in
// core/mpsn_model.h.
#ifndef DUET_CORE_DUET_MODEL_H_
#define DUET_CORE_DUET_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/encoding.h"
#include "core/sampler.h"
#include "nn/backbone.h"
#include "nn/made.h"
#include "nn/module.h"
#include "nn/transformer.h"
#include "query/estimator.h"
#include "query/query.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace duet::core {

/// Which autoregressive network carries the model (paper Sec. V-A4: MADE is
/// evaluated; a Transformer is anticipated as the higher-capacity variant).
enum class DuetBackbone : int32_t {
  kMade = 0,
  kTransformer = 1,
};

/// Architecture knobs (defaults follow the paper's Sec. V-A4 choices).
struct DuetModelOptions {
  /// MADE hidden sizes; the paper uses {512,256,512,128,1024} for DMV and
  /// 2x128 ResMADE for Kddcup98/Census.
  std::vector<int64_t> hidden_sizes = {256, 256};
  /// Use ResMADE residual blocks instead of a plain masked MLP.
  bool residual = false;
  /// Backbone selection; kMade reproduces the paper's evaluation.
  DuetBackbone backbone = DuetBackbone::kMade;
  /// Transformer architecture (used only when backbone == kTransformer).
  nn::TransformerConfig transformer;
  EncodingOptions encoding;
  uint64_t seed = 1;
};

/// Per-phase estimation cost accumulators (Fig. 6 / Fig. 7 breakdowns).
struct PhaseTimes {
  double encode_ms = 0.0;
  double forward_ms = 0.0;
  double post_ms = 0.0;  // softmax + zero-out mask + product
  double total_ms() const { return encode_ms + forward_ms + post_ms; }
  void Clear() { encode_ms = forward_ms = post_ms = 0.0; }
};

/// Algorithm 3 tail for one query row: per constrained block, the masked
/// softmax mass of that query's code range, accumulated as a log-space
/// product. Shared by the scalar and batched inference paths — and by
/// artifact-loaded models (artifact/artifact.h) — because the batch API
/// contract and the artifact bitwise-identity contract both require every
/// estimator to run exactly this loop; there is deliberately only one copy.
/// Returns false for a contradictory query (some range empty).
bool MaskedLogSelectivity(const float* logits_row, const std::vector<tensor::BlockSpec>& blocks,
                          const std::vector<query::CodeRange>& ranges, int num_columns,
                          double* log_sel_out);

/// Duet model (direct mode).
class DuetModel : public nn::Module {
 public:
  DuetModel(const data::Table& table, DuetModelOptions options);

  // ----- training-side API (differentiable) -----

  /// Encodes a sampled virtual batch into the network input (constants).
  tensor::Tensor EncodeVirtualBatch(const VirtualBatch& batch) const;

  /// Raw logits for an encoded input.
  tensor::Tensor ForwardLogits(const tensor::Tensor& x) const;

  /// Cross-entropy L_data for a virtual batch (mean over rows of the summed
  /// per-column NLL of the anchor labels).
  tensor::Tensor DataLoss(const VirtualBatch& batch) const;

  /// Differentiable selectivity for a batch of queries: one forward pass,
  /// then per-column masked sums and a log-space product (Algorithm 3 with
  /// gradients). Queries must have at most one predicate per column.
  tensor::Tensor SelectivityBatch(const std::vector<query::Query>& queries) const;

  // ----- inference-side API (no autograd) -----
  //
  // Thread-safety: both estimation entry points below are safe to call
  // concurrently from multiple threads while THIS instance's parameters are
  // unchanging (the encoder is stateless, activations live in per-thread
  // inference arenas, and the masked-weight cache publishes under its own
  // lock). The PhaseTimes accumulators are guarded by an internal mutex.
  // Training-side methods and optimizer steps must NOT run concurrently
  // with estimation *on the same instance* — online updates instead train
  // a clone (core::CloneModel) and publish it as an immutable snapshot
  // while the served instance keeps estimating (serve/model_registry.h);
  // training a different instance concurrently is safe, and a frozen
  // instance's pinned caches ignore the version bumps it causes.

  /// Algorithm 3 for a single query; deterministic. Returns selectivity in
  /// [0, 1]; queries with an empty predicate range return exactly 0.
  double EstimateSelectivity(const query::Query& query) const;

  /// Batched inference (the GPU-batching stand-in used by throughput
  /// benches): one forward pass for all queries.
  std::vector<double> EstimateSelectivityBatch(const std::vector<query::Query>& queries) const;

  // ----- inference configuration -----

  /// Selects the packed-weight backend used by all masked layers on the
  /// no-grad estimation paths (tensor/packed_weights.h): kDenseF32 keeps
  /// today's bitwise-exact behavior, kCsrF32 streams only nonzero masked
  /// weights (also bitwise-exact), kInt8 quarters weight traffic at bounded
  /// accuracy cost, kInt4 cuts it to an eighth. The plan recompiles lazily
  /// on the next forward. Const because only the inference cache is
  /// reconfigured — but configure before sharing the model with serving
  /// threads: a switch racing in-flight estimates is memory-safe yet a
  /// racing forward may serve either backend (see nn/inference_plan.h;
  /// published snapshots are configured once at publish time).
  void SetInferenceBackend(tensor::WeightBackend backend) const override {
    net_->SetInferenceBackend(backend);
  }

  /// Declares the parameters permanently frozen and pins the backbone's
  /// plan cache to `stamp` (snapshot publication; see nn/module.h).
  /// After this call the model must never be trained again.
  void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const override {
    net_->FreezeInferenceCaches(stamp);
  }

  /// Bytes held by the compiled plan's packed weights (0 until the first
  /// no-grad forward compiles it).
  uint64_t CachedBytes() const override { return net_->CachedBytes(); }

  /// Compiled-plan telemetry, forwarded to the backbone (the MADE backbone
  /// compiles plans; the Transformer runs its layers directly and reports
  /// zeros).
  nn::PlanTelemetry PlanInfo() const override { return net_->PlanInfo(); }

  // ----- introspection -----

  const data::Table& table() const { return table_; }
  /// Architecture the model was built with (what core::CloneModel replays).
  const DuetModelOptions& options() const { return options_; }
  const DuetInputEncoder& encoder() const { return encoder_; }
  /// The autoregressive network (MADE or BlockTransformer).
  const nn::Backbone& backbone() const { return *net_; }
  /// Profiling accumulators. Read/Clear only while no estimation is in
  /// flight; accumulation itself is internally locked so concurrent sharded
  /// estimation stays race-free.
  PhaseTimes& phase_times() const { return phase_times_; }

 private:
  /// Builds the zero-out mask row (out_dim floats) from per-column ranges.
  void FillMaskRow(const std::vector<query::CodeRange>& ranges, float* dst) const;

  /// Locked accumulation into one PhaseTimes field.
  void AddPhaseTime(double PhaseTimes::*field, double ms) const {
    std::lock_guard<std::mutex> lock(*phase_mu_);
    phase_times_.*field += ms;
  }

  const data::Table& table_;
  DuetModelOptions options_;
  DuetInputEncoder encoder_;
  std::unique_ptr<nn::Backbone> net_;
  // Profiling accumulators; guarded so concurrent sharded estimation (the
  // serving engine) does not race on them. The mutex is heap-held so the
  // model stays movable (tests return models by value).
  mutable std::unique_ptr<std::mutex> phase_mu_ = std::make_unique<std::mutex>();
  mutable PhaseTimes phase_times_;
};

/// CardinalityEstimator adapter over a trained DuetModel.
class DuetEstimator : public query::CardinalityEstimator {
 public:
  DuetEstimator(const DuetModel& model, std::string name = "Duet")
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
  const DuetModel& model_;
  std::string name_;
};

}  // namespace duet::core

#endif  // DUET_CORE_DUET_MODEL_H_
