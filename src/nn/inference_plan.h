// Compiled inference plans: a module's no-grad forward, flattened into a
// packed-op program. This is the only inference path of Mlp / Made /
// ResMADE; their layer loops run only with gradients enabled (training).
//
// Walking the module tree per forward costs virtual dispatch per layer,
// shape checks per op, one arena tensor per intermediate activation and a
// W o M product per masked layer. None of that work depends on the input —
// the structure of a frozen network is a compile-time constant. An
// InferencePlan resolves all of it once: `Module::Compile(backend)` walks
// Mlp / Made / ResMADE and emits a flat std::vector<PackedOp> program where
// every op carries its packed-weight handle (with the degree-sorted output
// permutation applied to masked layers — see tensor/packed_weights.h), a
// shared bias handle, a fused activation, and pre-resolved scratch-slab
// ids. Executing the plan is a tight loop over ops writing into a small set
// of per-thread ping-pong slabs: zero virtual calls, zero allocations in
// steady state, one output tensor per forward.
//
// Numerics: dense and CSR plans are bitwise-equal to the autograd forward
// (same float products, k-ascending accumulation, shared epilogue in
// ops.cc; CSR skips only exact zeros); int8/int4 carry the accuracy
// bounds of their backends.
//
// Caching & invalidation: a module caches one plan per
// (backend, ParameterVersion) in an InferencePlanCache. The cached plan is
// stamped with tensor::ParameterVersion() and recompiled lazily whenever
// the global counter moved (optimizer step, Module::Load,
// ParameterMutationGuard) or the requested backend changed. Publication is
// an atomic pointer swap under the cache mutex: a concurrent forward either
// holds the old immutable plan or the new one, never a torn view — so a
// whole forward resolves its backend exactly once, even when it races
// SetInferenceBackend. Configure a model before sharing it anyway: a racing
// forward may serve either backend.
//
// Thread-safety: a compiled plan is immutable and safe to execute from any
// number of threads (execution scratch is thread_local). Concurrent
// forwards are safe while the owning module's parameters are unchanging;
// updating THEM concurrently is never synchronized — online updates train a
// clone and publish it as a frozen snapshot whose plan cache is pinned to
// the freeze-time version (snapshot_id below), immune to the version bumps
// the clone's training emits (see serve/model_registry.h).
#ifndef DUET_NN_INFERENCE_PLAN_H_
#define DUET_NN_INFERENCE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet::nn {

/// One step of a compiled program. Slab ids refer to the plan's per-thread
/// scratch slabs; InferencePlan::kInputSlab / kOutputSlab alias the caller's
/// input / output buffers.
struct PackedOp {
  enum class Kind : int32_t {
    kLinear = 0,  ///< dst = act(src x W_packed + bias)
    kRelu = 1,    ///< dst[i] = max(src[i], 0)   (ResMADE pre-activation)
    kAdd = 2,     ///< dst[i] = src[i] + src2[i] (ResMADE skip connection)
  };
  Kind kind = Kind::kLinear;
  int src = 0;
  int src2 = -1;  ///< kAdd only
  int dst = 0;
  int64_t in = 0;   ///< input width read from src
  int64_t out = 0;  ///< output width written to dst
  /// kLinear: the packed effective weight (owned by the plan; permuted for
  /// masked layers) and the layer's bias (shared handle — biases are never
  /// copied, the gathering epilogue indexes them in original column order).
  std::shared_ptr<const tensor::PackedWeights> weights;
  tensor::Tensor bias;
  tensor::Activation act = tensor::Activation::kNone;
  /// True when `weights` shares the layer's parameter tensor handle
  /// (unpermuted dense packs over plain Linear weights): such ops add no
  /// weight memory and are excluded from bytes().
  bool weights_shared = false;
};

/// An immutable compiled program: Execute() runs the flattened forward.
class InferencePlan {
 public:
  static constexpr int kInputSlab = -1;
  static constexpr int kOutputSlab = -2;

  /// x: [B, input_dim] -> [B, output_dim]. Inference-only (asserts no-grad);
  /// allocates exactly one output tensor (arena-pooled under NoGradScope).
  tensor::Tensor Execute(const tensor::Tensor& x) const;

  /// Raw-buffer form: overwrites out[batch * output_dim]. Scratch slabs are
  /// thread_local, so concurrent executions never share state.
  void ExecuteInto(const float* x, int64_t batch, float* out) const;

  tensor::WeightBackend backend() const { return backend_; }
  int64_t input_dim() const { return input_dim_; }
  int64_t output_dim() const { return output_dim_; }
  const std::vector<PackedOp>& ops() const { return ops_; }
  /// Scratch slabs a forward ping-pongs through (2 for plain MADE / MLP
  /// programs, 3 for ResMADE where the skip connection stays live).
  int num_slabs() const { return num_slabs_; }
  /// Per-slab row width (max intermediate width); serialized into snapshot
  /// artifacts so a loaded plan executes with identical scratch layout.
  int64_t slab_width() const { return slab_width_; }
  /// Bytes held by the plan's packed weights (+ permutation metadata);
  /// shared bias/parameter handles count 0.
  uint64_t bytes() const;

  /// Reassembles a plan from already-resolved parts (ops carry PHYSICAL slab
  /// ids, i.e. post-Finish form). This is the artifact loader's entry point
  /// (artifact/artifact.h): the writer serializes a Finish()-ed program and
  /// the loader rebuilds it verbatim around mmap-backed packs — no
  /// re-planning, no slab reassignment, so execution order and scratch
  /// layout are byte-for-byte those of the original plan. The loader
  /// validates structure before calling; the checks here are last-resort.
  static std::shared_ptr<const InferencePlan> FromParts(std::vector<PackedOp> ops,
                                                        int num_slabs, int64_t slab_width,
                                                        int64_t input_dim, int64_t output_dim,
                                                        tensor::WeightBackend backend);

 private:
  friend class PlanBuilder;
  std::vector<PackedOp> ops_;
  int num_slabs_ = 0;
  int64_t slab_width_ = 0;  ///< per-slab row width (max intermediate width)
  int64_t input_dim_ = 0;
  int64_t output_dim_ = 0;
  tensor::WeightBackend backend_ = tensor::WeightBackend::kDenseF32;
};

/// Builds an InferencePlan from a module's layer walk. Ops are appended in
/// execution order against SSA-style value ids; Finish() assigns values to
/// physical slabs (greedy reuse at last use, with elementwise ops allowed
/// to alias their inputs) and returns the immutable plan.
class PlanBuilder {
 public:
  /// kInput is the value id of the caller's input buffer.
  static constexpr int kInput = InferencePlan::kInputSlab;

  PlanBuilder(tensor::WeightBackend backend, int64_t input_dim);

  /// Appends dst = act(src x W + bias) and returns dst's value id.
  /// `effective_weight` is the [in, out] matrix the layer multiplies by
  /// (W o M for masked layers, W for plain ones) — a materialized non-pooled
  /// tensor the pack may adopt. With `permute_outputs` the degree-sorted
  /// output permutation is derived from the weight's structural zeros and
  /// applied to the pack (identity permutations are dropped).
  /// `weight_is_parameter` marks effective_weight as the layer's live
  /// parameter tensor: unpermuted dense packs then share the handle and are
  /// excluded from plan bytes.
  int Linear(int src, const tensor::Tensor& effective_weight, const tensor::Tensor& bias,
             tensor::Activation act, bool permute_outputs, bool weight_is_parameter);

  /// Appends dst[i] = max(src[i], 0) and returns dst's value id.
  int Relu(int src);

  /// Appends dst[i] = a[i] + b[i] and returns dst's value id.
  int Add(int a, int b);

  /// Assigns slabs and seals the plan; `output` must be the last appended
  /// value (it is routed to the caller's output buffer).
  std::shared_ptr<const InferencePlan> Finish(int output);

 private:
  int64_t WidthOf(int value) const;

  tensor::WeightBackend backend_;
  int64_t input_dim_;
  std::vector<int64_t> value_width_;  // per value id
  std::vector<PackedOp> ops_;         // src/dst hold value ids until Finish
};

/// Per-module compiled-plan cache slot. `version` stamps the
/// tensor::ParameterVersion() under which `plan` was compiled; the slot is
/// recompiled under `mu` whenever the counter moved or `requested` changed,
/// and a fresh plan is published as a new shared_ptr so concurrent readers
/// holding the previous plan are never invalidated mid-forward.
/// Heap-allocated by owners so modules stay movable.
struct InferencePlanCache {
  std::mutex mu;
  std::shared_ptr<const InferencePlan> plan;
  uint64_t version = 0;
  /// Snapshot pin (guarded by mu): nonzero id means the owning module's
  /// parameters are frozen (Module::FreezeInferenceCaches) and the slot
  /// belongs to that snapshot — lookups then validate against the frozen
  /// `snapshot_version` instead of the moving global counter, so optimizer
  /// steps on other (cloned) models can never invalidate this plan.
  uint64_t snapshot_id = 0;
  uint64_t snapshot_version = 0;
  /// Backend selected by SetInferenceBackend (release-stored there,
  /// acquire-loaded per forward).
  std::atomic<tensor::WeightBackend> requested{tensor::WeightBackend::kDenseF32};
  // Telemetry (PlanTelemetry snapshot source).
  std::atomic<uint64_t> compiles{0};
  std::atomic<uint64_t> compile_micros{0};
  std::atomic<uint64_t> hits{0};

  /// Bytes held by the cached plan (0 before the first no-grad forward).
  uint64_t Bytes() {
    std::lock_guard<std::mutex> lock(mu);
    return plan ? plan->bytes() : 0;
  }

  PlanTelemetry Snapshot() const {
    PlanTelemetry t;
    t.compiles = compiles.load(std::memory_order_relaxed);
    t.compile_micros = compile_micros.load(std::memory_order_relaxed);
    t.cache_hits = hits.load(std::memory_order_relaxed);
    return t;
  }
};

/// Cache-coherent plan lookup: returns the cached plan when its version and
/// backend are current (counting a hit), otherwise invokes `compile` under
/// the cache mutex, times it, publishes and returns the fresh plan. For a
/// pinned cache (PinPlanCache) the reference version is the frozen
/// snapshot version, never the moving global counter. This is the single
/// implementation of the invalidation rules shared by every plan-compiling
/// module.
std::shared_ptr<const InferencePlan> GetOrCompilePlan(
    InferencePlanCache& cache,
    const std::function<std::shared_ptr<const InferencePlan>(tensor::WeightBackend)>& compile);

/// Pins `cache` to a snapshot (see InferencePlanCache::snapshot_id). Called
/// by plan-compiling modules from FreezeInferenceCaches.
void PinPlanCache(InferencePlanCache& cache, const tensor::SnapshotStamp& stamp);

}  // namespace duet::nn

#endif  // DUET_NN_INFERENCE_PLAN_H_
