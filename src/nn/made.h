// MADE / ResMADE: masked autoregressive networks over column blocks.
//
// This is the shared neural substrate of Naru, UAE and Duet (paper Sec.
// V-A4). Inputs are laid out as one contiguous block per table column (the
// block content differs between the methods: value encodings for Naru/UAE,
// predicate encodings for Duet); outputs are one logit block per column with
// one logit per distinct value. The binary connectivity masks enforce the
// autoregressive property: output block i depends only on input blocks < i,
// so column 0's head is input-independent (its marginal lives in the bias).
//
// Inference runs through a compiled InferencePlan (nn/inference_plan.h):
// a no-grad Forward executes the whole layer walk as a packed-op program,
// with the degree-sorted output permutation applied to every masked layer,
// in the backend chosen via SetInferenceBackend (dense fp32 / CSR sparse /
// int8 / int4 — see tensor/packed_weights.h), cached per (backend,
// parameter version). W o M is thus packed once per parameter version
// instead of materialized per forward. Dense/CSR plans are bitwise-equal
// to the autograd forward, which the layer loop runs whenever gradients
// are enabled. Forward is safe to call concurrently while parameters are
// frozen.
#ifndef DUET_NN_MADE_H_
#define DUET_NN_MADE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/backbone.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace duet::nn {

/// Configuration for a column-blocked MADE.
struct MadeOptions {
  /// Per-column input block width (encoding width of column i).
  std::vector<int64_t> input_widths;
  /// Per-column output block width (number of distinct values of column i).
  std::vector<int64_t> output_widths;
  /// Hidden layer sizes; for residual=true all entries must be equal.
  std::vector<int64_t> hidden_sizes;
  /// Use ResMADE residual blocks (UAE's architecture for Kddcup98/Census)
  /// instead of a plain masked MLP (Naru's architecture for DMV).
  bool residual = false;
};

/// Column-blocked masked autoregressive network.
class Made : public Backbone {
 public:
  Made(MadeOptions options, Rng& rng);

  /// x: [B, sum(input_widths)] -> logits [B, sum(output_widths)].
  tensor::Tensor Forward(const tensor::Tensor& x) const override;

  /// Output logit block layout, one block per column.
  const std::vector<tensor::BlockSpec>& output_blocks() const override { return out_blocks_; }

  /// Input block layout, one block per column.
  const std::vector<tensor::BlockSpec>& input_blocks() const override { return in_blocks_; }

  int64_t input_dim() const override { return input_dim_; }
  int64_t output_dim() const override { return output_dim_; }
  int num_columns() const override {
    return static_cast<int>(options_.input_widths.size());
  }

  /// Selects the plan's backend; the plan recompiles lazily on the next
  /// no-grad forward.
  void SetInferenceBackend(tensor::WeightBackend backend) const override;

  /// Pins the plan cache to `stamp` (snapshot publication; see
  /// nn/module.h).
  void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const override;

  /// Bytes held by the compiled plan's packed weights.
  uint64_t CachedBytes() const override;

  /// Flattens the (Res)MADE layer walk into a packed-op program with the
  /// degree-sorted output permutation applied to every masked layer.
  std::shared_ptr<const InferencePlan> Compile(tensor::WeightBackend backend) const override;
  PlanTelemetry PlanInfo() const override;

  const MadeOptions& options() const { return options_; }

 private:
  MadeOptions options_;
  int64_t input_dim_ = 0;
  int64_t output_dim_ = 0;
  std::vector<tensor::BlockSpec> in_blocks_;
  std::vector<tensor::BlockSpec> out_blocks_;
  std::vector<MaskedLinear> layers_;  // plain MADE path
  // ResMADE path: input projection, residual pairs, output projection.
  std::unique_ptr<MaskedLinear> res_input_;
  std::vector<MaskedLinear> res_layers_;  // 2 per residual block
  std::unique_ptr<MaskedLinear> res_output_;
  std::unique_ptr<InferencePlanCache> plan_cache_;
};

/// Builds the [in_dim, out_dim] 0/1 mask connecting units with degrees
/// `in_deg` to units with degrees `out_deg` under rule:
///   strict == false: allowed iff out_deg[k] >= in_deg[j]   (hidden layers)
///   strict == true : allowed iff out_deg[k] >  in_deg[j]   (output layer)
/// Exposed for tests.
tensor::Tensor BuildMadeMask(const std::vector<int32_t>& in_deg,
                             const std::vector<int32_t>& out_deg, bool strict);

/// Degree assignment helpers (exposed for tests).
std::vector<int32_t> MadeInputDegrees(const std::vector<int64_t>& widths);
std::vector<int32_t> MadeHiddenDegrees(int64_t size, int num_columns);
std::vector<int32_t> MadeOutputDegrees(const std::vector<int64_t>& widths);

}  // namespace duet::nn

#endif  // DUET_NN_MADE_H_
