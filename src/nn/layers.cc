#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"

namespace duet::nn {

using tensor::Tensor;

namespace {

Tensor UniformInit(std::vector<int64_t> shape, float bound, Rng& rng) {
  Tensor t = Tensor::Zeros(std::move(shape));
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = (rng.UniformFloat() * 2.0f - 1.0f) * bound;
  return t;
}

}  // namespace

Linear::Linear(int64_t in, int64_t out, Rng& rng) : in_(in), out_(out) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in));
  w_ = RegisterParam(UniformInit({in, out}, bound, rng));
  b_ = RegisterParam(UniformInit({out}, bound, rng));
}

tensor::Tensor Linear::EffectiveWeightCopy() const {
  return Tensor::FromVector(w_.shape(), w_.value_vector());
}

Tensor Linear::Forward(const Tensor& x, tensor::Activation act) const {
  return tensor::MatMulBiasAct(x, w_, b_, act);
}

MaskedLinear::MaskedLinear(int64_t in, int64_t out, Tensor mask, Rng& rng)
    : mask_(std::move(mask)), layout_(tensor::BuildMaskLayout(mask_)) {
  DUET_CHECK_EQ(mask_.dim(0), in);
  DUET_CHECK_EQ(mask_.dim(1), out);
  const float bound = 1.0f / std::sqrt(static_cast<float>(in));
  w_ = RegisterParam(UniformInit({in, out}, bound, rng));
  b_ = RegisterParam(UniformInit({out}, bound, rng));
}

tensor::Tensor MaskedLinear::EffectiveWeightCopy() const {
  // Materialize W o M into a fresh non-pooled buffer: packs built from it
  // outlive any NoGradScope and are read from many threads, so the product
  // must not borrow from a thread-local inference arena (see arena rules in
  // tensor.h).
  const float* w = w_.data();
  const float* m = mask_.data();
  std::vector<float> wm(static_cast<size_t>(w_.numel()));
  for (size_t i = 0; i < wm.size(); ++i) wm[i] = w[i] * m[i];
  return Tensor::FromVector(w_.shape(), std::move(wm));
}

Tensor MaskedLinear::Forward(const Tensor& x, tensor::Activation act) const {
  return tensor::MaskedMatMulBiasAct(x, w_, layout_, b_, act);
}

Mlp::Mlp(const std::vector<int64_t>& sizes, Rng& rng)
    : plan_cache_(std::make_unique<InferencePlanCache>()) {
  DUET_CHECK_GE(sizes.size(), 2u);
  layers_.reserve(sizes.size() - 1);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(sizes[i], sizes[i + 1], rng);
  }
  for (auto& l : layers_) RegisterChild(l);
}

Tensor Mlp::Forward(const Tensor& x) const {
  if (!tensor::NoGradGuard::GradEnabled()) {
    const auto plan = GetOrCompilePlan(
        *plan_cache_, [this](tensor::WeightBackend backend) { return Compile(backend); });
    return plan->Execute(x);
  }
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i].Forward(h, last ? tensor::Activation::kNone : tensor::Activation::kRelu);
  }
  return h;
}

std::shared_ptr<const InferencePlan> Mlp::Compile(tensor::WeightBackend backend) const {
  PlanBuilder b(backend, layers_.front().in_features());
  int h = PlanBuilder::kInput;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    // Plain Linear weights have no structural zeros, so the degree-sorted
    // permutation is never profitable; dense packs share the live parameter
    // handle (no weight copy), other backends pack from a fresh copy.
    const bool dense = backend == tensor::WeightBackend::kDenseF32;
    h = b.Linear(h, dense ? layers_[i].weight() : layers_[i].EffectiveWeightCopy(),
                 layers_[i].bias(),
                 last ? tensor::Activation::kNone : tensor::Activation::kRelu,
                 /*permute_outputs=*/false, /*weight_is_parameter=*/dense);
  }
  return b.Finish(h);
}

void Mlp::SetInferenceBackend(tensor::WeightBackend backend) const {
  plan_cache_->requested.store(backend, std::memory_order_release);
}

void Mlp::FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const {
  PinPlanCache(*plan_cache_, stamp);
}

uint64_t Mlp::CachedBytes() const { return plan_cache_->Bytes(); }

PlanTelemetry Mlp::PlanInfo() const { return plan_cache_->Snapshot(); }

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng& rng) : dim_(dim) {
  // Normal(0, 1) scaled down keeps embedding magnitudes comparable to the
  // binary encodings they can replace.
  Tensor t = Tensor::Zeros({num_embeddings, dim});
  float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.Gaussian()) * 0.1f;
  w_ = RegisterParam(t);
}

Tensor Embedding::Forward(const std::vector<int32_t>& idx) const {
  return tensor::EmbeddingLookup(w_, idx);
}

LstmCell::LstmCell(int64_t input, int64_t hidden, Rng& rng) : hidden_(hidden) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(hidden));
  wx_ = RegisterParam(UniformInit({input, 4 * hidden}, bound, rng));
  wh_ = RegisterParam(UniformInit({hidden, 4 * hidden}, bound, rng));
  b_ = RegisterParam(UniformInit({4 * hidden}, bound, rng));
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return {Tensor::Zeros({batch, hidden_}), Tensor::Zeros({batch, hidden_})};
}

LstmCell::State LstmCell::Forward(const Tensor& x, const State& prev) const {
  using namespace tensor;  // NOLINT
  Tensor gates = AddBias(Add(MatMul(x, wx_), MatMul(prev.h, wh_)), b_);
  Tensor i = Sigmoid(SliceCols(gates, 0, hidden_));
  Tensor f = Sigmoid(SliceCols(gates, hidden_, hidden_));
  Tensor g = Tanh(SliceCols(gates, 2 * hidden_, hidden_));
  Tensor o = Sigmoid(SliceCols(gates, 3 * hidden_, hidden_));
  Tensor c = Add(Mul(f, prev.c), Mul(i, g));
  Tensor h = Mul(o, Tanh(c));
  return {h, c};
}

}  // namespace duet::nn
