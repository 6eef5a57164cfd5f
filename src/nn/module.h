// Module base class: parameter registration, counting, checkpoint I/O.
#ifndef DUET_NN_MODULE_H_
#define DUET_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "tensor/tensor.h"

namespace duet::tensor {
// Opaque declaration (definition: tensor/packed_weights.h); modules that
// compile plans include the full header, plain modules do not need it.
enum class WeightBackend : int32_t;
}  // namespace duet::tensor

namespace duet::nn {

// Opaque declaration (definition: nn/inference_plan.h); only modules that
// compile plans pull in the full header.
class InferencePlan;

/// Compiled-plan cache telemetry (serving observability; summed over
/// children by container modules). `compile_micros` is wall time spent
/// inside plan compilation; `cache_hits` counts no-grad forwards served by
/// an already-compiled plan.
struct PlanTelemetry {
  uint64_t compiles = 0;
  uint64_t compile_micros = 0;
  uint64_t cache_hits = 0;

  PlanTelemetry& operator+=(const PlanTelemetry& o) {
    compiles += o.compiles;
    compile_micros += o.compile_micros;
    cache_hits += o.cache_hits;
    return *this;
  }
};

/// Base class for neural network building blocks. Parameters registered via
/// RegisterParam (or pulled in from child modules via RegisterChild) are
/// exposed to optimizers and serialized in registration order.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  // Explicit noexcept moves: the virtual destructor would otherwise
  // suppress them, and containers of move-only modules (plan caches hold a
  // mutex behind a unique_ptr) need nothrow moves so vector reallocation
  // never falls back to the deleted copy path.
  Module(Module&&) noexcept = default;
  Module& operator=(Module&&) noexcept = default;
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;

  /// Selects the packed-weight backend of the compiled inference plan:
  /// dense fp32, CSR, int8 or int4 (see tensor/packed_weights.h).
  /// Plan-compiling modules recompile lazily on their next no-grad forward;
  /// container modules forward the call to their children; other modules
  /// ignore it (default). Const because it only reconfigures the inference
  /// cache, never the trainable parameters. Plans publish atomically, so a
  /// switch racing in-flight forwards is memory-safe — but a racing forward
  /// may serve either backend, so configure a model before sharing it
  /// (snapshots are configured once at publish time, see
  /// serve/model_registry.h).
  virtual void SetInferenceBackend(tensor::WeightBackend backend) const {
    (void)backend;
  }

  /// Declares this module's parameters permanently frozen and pins its
  /// compiled-plan cache to `stamp`: a pinned cache stops comparing
  /// against the moving global tensor::ParameterVersion() and serves what it
  /// built under stamp.parameter_version forever. This
  /// is the multi-version serving hook — it makes a published snapshot
  /// immune to the version bumps a background fine-tune of a *different*
  /// (cloned) model performs on every optimizer step. Irreversible by
  /// design: after freezing, training this module is a contract violation
  /// (the plan would serve stale weights). Container modules forward to their
  /// children; modules without caches ignore it (default).
  virtual void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) const {
    (void)stamp;
  }

  /// Bytes held by the compiled plan's packed weights (0 before the first
  /// no-grad forward). Container modules sum over their children. This is
  /// the observability hook for the plan's memory cost: a dense plan doubles
  /// a masked layer's weight memory, CSR roughly halves the extra copy, int8
  /// quarters it, int4 cuts it to about a sixth.
  virtual uint64_t CachedBytes() const { return 0; }

  /// Compiles this module's no-grad forward into a flat packed-op program
  /// (see nn/inference_plan.h), or returns null for modules without a
  /// compilable forward (the default). Called by the plan cache, not
  /// per-forward; implementations walk their layers and pack weights for
  /// `backend`.
  virtual std::shared_ptr<const InferencePlan> Compile(tensor::WeightBackend backend) const {
    (void)backend;
    return nullptr;
  }

  /// Plan-cache telemetry (zeros for modules without plans; containers sum
  /// over children).
  virtual PlanTelemetry PlanInfo() const { return {}; }

  /// All trainable parameters (this module + registered children).
  const std::vector<tensor::Tensor>& parameters() const { return params_; }

  /// Total number of scalar parameters.
  int64_t NumParams() const;

  /// Model size in MiB assuming float32 storage (paper Table II "Size(MB)").
  double SizeMB() const;

  /// Writes all parameters (values only) in registration order.
  void Save(BinaryWriter& w) const;

  /// Reads parameters written by Save into the existing tensors; shapes must
  /// match the current architecture.
  void Load(BinaryReader& r);

  /// Copies every parameter value from `src` into this module's existing
  /// tensors (registration order; counts and shapes must match — both
  /// modules must share an architecture). Bitwise what Save(src)+Load(this)
  /// produces, without the serialization buffer: no transient image of the
  /// parameters is materialized, which is what keeps core::CloneModel at
  /// one extra model of memory instead of two. Mutates through raw data()
  /// pointers under a ParameterMutationGuard, so like Load it invalidates
  /// this module's parameter-derived caches; `src` is only read.
  void CopyParametersFrom(const Module& src);

 protected:
  /// Registers a tensor as trainable and returns it.
  tensor::Tensor RegisterParam(tensor::Tensor t);

  /// Adopts all parameters of a child module (child must outlive the parent's
  /// optimizer usage; typically children are data members).
  void RegisterChild(Module& child);

 private:
  std::vector<tensor::Tensor> params_;
};

}  // namespace duet::nn

#endif  // DUET_NN_MODULE_H_
