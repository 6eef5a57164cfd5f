// A small reverse-mode automatic-differentiation tensor engine.
//
// This is the substrate the paper gets from PyTorch/LibTorch: dense float32
// tensors, a dynamically built computation graph, and backpropagation. The
// reproduction implements it from scratch (see DESIGN.md Sec. 1) so that the
// MADE models, the Duet estimator, the Gumbel-Softmax progressive sampler of
// UAE, and the hybrid Q-error loss all run on one deterministic CPU engine.
//
// Design notes:
//  * A Tensor is a shared handle to an Impl node holding value, grad, and an
//    optional backward closure plus parent links (the graph is embedded in
//    the nodes; releasing the loss tensor frees the graph).
//  * Shapes are 1-D to 3-D; almost everything in the library is [batch, dim].
//  * Gradient tracking is opt-in per-leaf (requires_grad) and can be
//    suppressed globally with NoGradGuard for inference paths, which is how
//    the latency benches measure pure forward cost.
#ifndef DUET_TENSOR_TENSOR_H_
#define DUET_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace duet::tensor {

class Tensor;

/// Reference-counted tensor storage + autograd node.
struct TensorImpl {
  /// Which TensorArena pool `value` (and `grad`) were drawn from; both go
  /// back to the dying thread's arena on destruction.
  enum class Pool : uint8_t {
    kNone = 0,       // plain heap
    kInference = 1,  // NoGradScope buffer: kept in the arena past the scope
    kStep = 2,       // TrainingScope buffer: freed once no scope is open
  };

  std::vector<int64_t> shape;
  std::vector<float> value;
  std::vector<float> grad;  // lazily sized to value.size()
  bool requires_grad = false;
  Pool pooled = Pool::kNone;
  std::function<void()> backward;  // accumulates into parents' grads
  std::vector<std::shared_ptr<TensorImpl>> parents;

  TensorImpl() = default;
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Sizes `value` to n floats filled with `fill`. Inside a TrainingScope,
  /// or inside a NoGradScope for a tensor that takes no gradient, the
  /// buffer is recycled from the thread-local TensorArena when possible.
  void AllocValue(size_t n, float fill);

  /// The arena half of AllocValue: when a scope calls for it, draws `value`
  /// (n floats, contents unspecified) from the thread's TensorArena and
  /// returns true; otherwise leaves `value` alone and returns false. For
  /// kernel scratch that is fully overwritten, so it skips the fill.
  bool AcquirePooled(size_t n);

  /// Sizes `grad` to value.size() and zero-fills it; a pooled node's
  /// gradient comes from the arena like its value.
  void ResetGrad();

  /// Gives the gradient buffer back (to the arena when pooled); grad is
  /// empty afterwards.
  void ReleaseGrad();

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }
  void EnsureGrad() {
    if (grad.size() != value.size()) ResetGrad();
  }
  /// The gradient buffer a backward closure adds into, or nullptr for a
  /// node that takes no gradient: constants (an input batch, a mask) never
  /// get one (see Tensor::Backward). Every op reaches its parents'
  /// gradients through this.
  float* MutableGrad() {
    if (!requires_grad) return nullptr;
    EnsureGrad();
    return grad.data();
  }
};

/// Thread-local buffer pool behind the two allocation scopes below. Buffers
/// are kept in per-size free lists and recycled when their TensorImpl dies,
/// so a loop that repeats the same shapes — batched forwards under
/// NoGradScope, training steps under TrainingScope — performs zero heap
/// allocations for activations and gradients after its first pass. The
/// counters below are the allocation hook benches/tests assert against.
class TensorArena {
 public:
  struct Stats {
    uint64_t fresh_allocs = 0;  // pool miss: a new buffer was heap-allocated
    uint64_t reuses = 0;        // pool hit: buffer served from a free list
    uint64_t returns = 0;       // buffers recycled back into the pool
  };

  static Stats stats();
  static void ResetStats();
  /// Frees every pooled buffer on this thread.
  static void Clear();

 private:
  friend struct TensorImpl;
  friend class NoGradScope;
  static std::vector<float> Acquire(size_t n);
  static void Release(std::vector<float>&& buf, TensorImpl::Pool pool);
};

/// Monotonic counter identifying the current "version" of the model
/// parameters in this process. Every optimizer step (`Adam::Step`,
/// `Sgd::Step`) and every checkpoint load (`nn::Module::Load`) bumps it;
/// inference-side caches derived from parameters (e.g. the masked-weight
/// cache in `nn::MaskedLinear`) compare their stamp against this counter and
/// rebuild when stale. Code that mutates parameter storage directly through
/// raw `data()` pointers must call BumpParameterVersion() itself, otherwise
/// such caches will serve stale derived values.
///
/// Thread-safety: both functions are atomic and safe to call from any
/// thread. Note the counter orders cache invalidation only — a parameter
/// update racing an in-flight forward pass over the SAME storage still
/// yields torn reads of the weights themselves. Serving therefore never
/// mutates a served model in place: online updates train a clone and
/// publish it as an immutable snapshot (serve/model_registry.h), and only
/// code that owns a model exclusively may train it while it is being read.
uint64_t ParameterVersion();
void BumpParameterVersion();

/// RAII form of the invalidation contract above: construct one in any scope
/// that mutates parameter storage through raw `data()` pointers (checkpoint
/// restores, fine-tuning drivers, optimizer steps); its destructor bumps
/// ParameterVersion() exactly once, after the mutation — including on early
/// returns and exceptions — so parameter-derived caches can never observe a
/// completed mutation under a stale version. Prefer this over calling
/// BumpParameterVersion() by hand, which is easy to forget on one exit path.
class ParameterMutationGuard {
 public:
  ParameterMutationGuard() = default;
  ~ParameterMutationGuard() { BumpParameterVersion(); }
  ParameterMutationGuard(const ParameterMutationGuard&) = delete;
  ParameterMutationGuard& operator=(const ParameterMutationGuard&) = delete;
};

/// Identity of one immutable published model snapshot, layered on the
/// version counter above: `id` is a process-unique monotonic snapshot
/// number (never 0 — 0 marks "live/mutable model" in cache slots), and
/// `parameter_version` records ParameterVersion() at freeze time, i.e. the
/// version every parameter-derived cache of that snapshot is valid under.
///
/// This is what turns the process-global invalidation scheme into
/// multi-version concurrency: a cache pinned to a SnapshotStamp stops
/// comparing against the *moving* global counter (which a background
/// fine-tune of a cloned model bumps on every optimizer step) and instead
/// trusts the frozen version it was built under — valid forever, because a
/// snapshot's weights never change after freeze. See
/// nn::Module::FreezeInferenceCaches and serve/model_registry.h.
struct SnapshotStamp {
  uint64_t id = 0;
  uint64_t parameter_version = 0;
};

/// Allocates the next snapshot id and pairs it with the current
/// ParameterVersion(). Call only after the snapshot's weights are final.
/// Thread-safe.
SnapshotStamp AcquireSnapshotStamp();

/// RAII guard disabling graph construction (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when graph construction is currently enabled.
  static bool GradEnabled();

 private:
  bool prev_;
};

/// Explicit inference mode: disables graph construction like NoGradGuard and
/// additionally activates the thread-local TensorArena so activation
/// buffers are recycled across forward passes. Numerics are identical to
/// tracked mode — only allocation behaviour changes.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  NoGradGuard guard_;
  bool prev_active_;
};

/// Step-scoped training buffers. While one is alive on a thread, every
/// tensor buffer made on that thread — op outputs, the gradient buffers
/// Tensor::Backward hands out, kernel scratch — comes from the thread's
/// TensorArena and returns to it when its tensor dies, so the steps of one
/// training loop reuse each other's buffers instead of heap-allocating
/// fresh ones. When the outermost scope on the thread ends,
/// the arena frees everything it holds (inference buffers included), and a
/// step buffer released later is freed rather than pooled: training leaves
/// no per-thread memory behind in a long-lived process. Numerics are
/// unchanged. Nests; only the outermost scope frees.
class TrainingScope {
 public:
  TrainingScope();
  ~TrainingScope();
  TrainingScope(const TrainingScope&) = delete;
  TrainingScope& operator=(const TrainingScope&) = delete;
};

/// Value-semantics handle over TensorImpl.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Allocates a zero-filled tensor.
  static Tensor Zeros(std::vector<int64_t> shape, bool requires_grad = false);

  /// Allocates a constant-filled tensor.
  static Tensor Full(std::vector<int64_t> shape, float fill, bool requires_grad = false);

  /// Wraps existing data (copied).
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> data,
                           bool requires_grad = false);

  /// A scalar (shape [1]).
  static Tensor Scalar(float v, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  int64_t dim(int i) const;
  int ndim() const;
  int64_t numel() const;
  bool requires_grad() const;

  float* data();
  const float* data() const;
  /// Grad buffer (allocated on first use).
  float* grad_data();
  const std::vector<float>& grad_vector() const;
  const std::vector<float>& value_vector() const;

  /// Scalar value accessor (requires numel()==1).
  float item() const;

  /// Zeroes this tensor's grad buffer.
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this tensor. The seed gradient is 1 for
  /// every element (callers typically invoke this on a scalar loss). Only
  /// nodes on a path to a requires_grad leaf take part. A leaf's gradient
  /// is reset to zeros and then accumulated; it stays readable afterwards.
  /// An op result gets a zeroed gradient buffer when its first consumer
  /// adds into it and gives it back once its own backward has run, so only
  /// the gradient frontier is ever allocated and op results hold no
  /// gradient afterwards. Constants such as an input batch or a mask never
  /// get a gradient buffer.
  void Backward();

  /// Deep copy of values only (no graph, no grad).
  Tensor Clone() const;

  /// Same storage, detached from the graph (no parents / backward).
  Tensor Detach() const;

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  /// Human-readable short description ("Tensor[2x3]").
  std::string DebugString() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace duet::tensor

#endif  // DUET_TENSOR_TENSOR_H_
