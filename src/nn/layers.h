// Core layers: Linear, MaskedLinear (MADE building block), MLP, Embedding,
// LSTMCell (used by the RNN variant of Duet's MPSN).
#ifndef DUET_NN_LAYERS_H_
#define DUET_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/inference_plan.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet::nn {

/// Fully connected layer y = x W + b with PyTorch-style U(-1/sqrt(I), ..)
/// initialization. W is stored [in, out] to match tensor::MatMul.
///
/// A layer holds no inference state: Forward is the tracked fused GEMM in
/// every mode. Packed-weight inference lives one level up, in the compiled
/// plan of the owning Mlp (nn/inference_plan.h), which packs from
/// weight() / EffectiveWeightCopy().
class Linear : public Module {
 public:
  Linear(int64_t in, int64_t out, Rng& rng);

  /// Fused act(x W + b); kNone gives the plain affine layer.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         tensor::Activation act = tensor::Activation::kNone) const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  const tensor::Tensor& weight() const { return w_; }
  const tensor::Tensor& bias() const { return b_; }

  /// Non-pooled copy of W for plan compilation (plain layers: the effective
  /// weight IS the parameter; dense plans share the live handle instead).
  tensor::Tensor EffectiveWeightCopy() const;

 private:
  int64_t in_;
  int64_t out_;
  tensor::Tensor w_;
  tensor::Tensor b_;
};

/// Linear layer whose weight is elementwise-gated by a constant binary mask
/// (the MADE connectivity constraint): y = x (W o M) + b.
///
/// Forward is one fused graph node (tensor::MaskedMatMulBiasAct): W trains
/// through the mask, which takes no gradient, and the node's GEMMs skip the
/// mask's structural zeros through a tensor::MaskLayout built once here. Inference never calls it: the
/// owning Made compiles its no-grad forward into a plan that packs
/// EffectiveWeightCopy() once per (backend, parameter version) — see
/// nn/made.h and nn/inference_plan.h.
class MaskedLinear : public Module {
 public:
  /// `mask` must be an [in, out] tensor of 0/1 floats.
  MaskedLinear(int64_t in, int64_t out, tensor::Tensor mask, Rng& rng);

  /// Fused act(x (W o M) + b); kNone gives the plain affine layer.
  tensor::Tensor Forward(const tensor::Tensor& x,
                         tensor::Activation act = tensor::Activation::kNone) const;

  const tensor::Tensor& mask() const { return mask_; }
  const tensor::Tensor& weight() const { return w_; }
  const tensor::Tensor& bias() const { return b_; }

  /// Materializes W o M into a fresh non-pooled tensor (what inference
  /// multiplies by); plan compilation packs from this.
  tensor::Tensor EffectiveWeightCopy() const;

 private:
  tensor::Tensor w_;
  tensor::Tensor b_;
  tensor::Tensor mask_;  // constant
  std::shared_ptr<const tensor::MaskLayout> layout_;  // mask_'s training tiles
};

/// Plain ReLU MLP; `sizes` = {in, h1, ..., out}. No activation after the
/// final layer.
///
/// No-grad forwards execute through a compiled inference plan (see
/// nn/inference_plan.h): the layer loop is flattened once per
/// (backend, parameter version) into a packed-op program — bitwise-equal to
/// the autograd forward for dense and CSR, and routing the whole forward
/// through one atomically published program (a backend switch can never
/// mix backends inside one forward). Forwards with gradients enabled run
/// the layer loop.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int64_t>& sizes, Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  void SetInferenceBackend(tensor::WeightBackend backend) const override;
  void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const override;
  /// Bytes held by the compiled plan's packed weights.
  uint64_t CachedBytes() const override;

  std::shared_ptr<const InferencePlan> Compile(tensor::WeightBackend backend) const override;
  PlanTelemetry PlanInfo() const override;

 private:
  std::vector<Linear> layers_;
  std::unique_ptr<InferencePlanCache> plan_cache_;
};

/// Embedding table: rows of a [num_embeddings, dim] matrix.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng& rng);

  tensor::Tensor Forward(const std::vector<int32_t>& idx) const;

  int64_t dim() const { return dim_; }
  const tensor::Tensor& weight() const { return w_; }

 private:
  int64_t dim_;
  tensor::Tensor w_;
};

/// Single LSTM cell; state is carried explicitly by the caller.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input, int64_t hidden, Rng& rng);

  struct State {
    tensor::Tensor h;
    tensor::Tensor c;
  };

  /// Zero state for a batch.
  State InitialState(int64_t batch) const;

  /// One step: returns the new state.
  State Forward(const tensor::Tensor& x, const State& prev) const;

  int64_t hidden() const { return hidden_; }

 private:
  int64_t hidden_;
  tensor::Tensor wx_;  // [input, 4H]
  tensor::Tensor wh_;  // [hidden, 4H]
  tensor::Tensor b_;   // [4H]
};

}  // namespace duet::nn

#endif  // DUET_NN_LAYERS_H_
