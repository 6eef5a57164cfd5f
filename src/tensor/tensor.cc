#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "serve/fault_injector.h"

namespace duet::tensor {

namespace {

thread_local bool t_grad_enabled = true;

/// Per-thread tensor arena: free lists keyed by exact buffer size. Shapes
/// repeat across batched forward calls and training steps, so exact-size
/// buckets reach a 100% hit rate after one warm-up pass. Total pooled bytes
/// are capped so a long-running server that sees many distinct shapes cannot
/// accumulate unbounded per-thread memory; buffers past the cap are simply
/// freed.
constexpr size_t kMaxPooledBytes = size_t{256} << 20;  // 256 MiB per thread

struct ArenaState {
  bool active = false;     // a NoGradScope is open
  int training_depth = 0;  // open TrainingScopes
  size_t pooled_bytes = 0;
  std::unordered_map<size_t, std::vector<std::vector<float>>> pool;
  TensorArena::Stats stats;
};
thread_local ArenaState t_arena;

}  // namespace

namespace {
// Starts at 1 so a zero-initialized cache stamp is always stale.
std::atomic<uint64_t> g_parameter_version{1};
}  // namespace

uint64_t ParameterVersion() { return g_parameter_version.load(std::memory_order_acquire); }
void BumpParameterVersion() { g_parameter_version.fetch_add(1, std::memory_order_acq_rel); }

namespace {
// Starts at 1 so id 0 can mean "not a snapshot" in cache slots.
std::atomic<uint64_t> g_next_snapshot_id{1};
}  // namespace

SnapshotStamp AcquireSnapshotStamp() {
  SnapshotStamp stamp;
  stamp.id = g_next_snapshot_id.fetch_add(1, std::memory_order_acq_rel);
  stamp.parameter_version = ParameterVersion();
  return stamp;
}

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }
bool NoGradGuard::GradEnabled() { return t_grad_enabled; }

NoGradScope::NoGradScope() : prev_active_(t_arena.active) { t_arena.active = true; }
NoGradScope::~NoGradScope() { t_arena.active = prev_active_; }

TrainingScope::TrainingScope() { ++t_arena.training_depth; }
TrainingScope::~TrainingScope() {
  if (--t_arena.training_depth == 0) TensorArena::Clear();
}

TensorArena::Stats TensorArena::stats() { return t_arena.stats; }
void TensorArena::ResetStats() { t_arena.stats = Stats{}; }
void TensorArena::Clear() {
  t_arena.pool.clear();
  t_arena.pooled_bytes = 0;
}

std::vector<float> TensorArena::Acquire(size_t n) {
  auto it = t_arena.pool.find(n);
  if (it != t_arena.pool.end() && !it->second.empty()) {
    std::vector<float> buf = std::move(it->second.back());
    it->second.pop_back();
    t_arena.pooled_bytes -= n * sizeof(float);
    ++t_arena.stats.reuses;
    return buf;
  }
  ++t_arena.stats.fresh_allocs;
  return std::vector<float>(n);
}

void TensorArena::Release(std::vector<float>&& buf, TensorImpl::Pool pool) {
  // A step buffer outliving every TrainingScope on this thread is freed:
  // the scope's promise is that training leaves nothing pooled behind.
  if (pool == TensorImpl::Pool::kStep && t_arena.training_depth == 0) return;
  const size_t bytes = buf.size() * sizeof(float);
  if (t_arena.pooled_bytes + bytes > kMaxPooledBytes) return;  // drop: cap reached
  t_arena.pooled_bytes += bytes;
  ++t_arena.stats.returns;
  t_arena.pool[buf.size()].push_back(std::move(buf));
}

TensorImpl::~TensorImpl() {
  if (pooled == Pool::kNone) return;
  TensorArena::Release(std::move(value), pooled);
  if (!grad.empty()) TensorArena::Release(std::move(grad), pooled);
}

void TensorImpl::AllocValue(size_t n, float fill) {
  if (AcquirePooled(n)) {
    std::fill(value.begin(), value.end(), fill);
  } else {
    value.assign(n, fill);
  }
}

bool TensorImpl::AcquirePooled(size_t n) {
  if (t_arena.training_depth > 0) {
    pooled = Pool::kStep;
  } else if (t_arena.active && !requires_grad) {
    // Fault point: buffer acquisition is where a real allocation failure
    // (std::bad_alloc) would surface on the inference path; the serving
    // layer must degrade the affected shard, not crash.
    serve::FaultInjector::MaybeThrow(serve::FaultPoint::kAllocation,
                                     "injected arena allocation failure");
    pooled = Pool::kInference;
  } else {
    return false;
  }
  value = TensorArena::Acquire(n);
  return true;
}

void TensorImpl::ReleaseGrad() {
  std::vector<float> buf = std::move(grad);  // leaves grad empty
  if (pooled != Pool::kNone && !buf.empty()) TensorArena::Release(std::move(buf), pooled);
}

void TensorImpl::ResetGrad() {
  const size_t n = value.size();
  if (grad.size() != n) {
    if (pooled == Pool::kNone) {
      grad.assign(n, 0.0f);
      return;
    }
    grad = TensorArena::Acquire(n);
  }
  std::fill(grad.begin(), grad.end(), 0.0f);
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(std::vector<int64_t> shape, float fill, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  int64_t n = 1;
  for (int64_t d : impl->shape) {
    DUET_CHECK_GE(d, 0);
    n *= d;
  }
  impl->requires_grad = requires_grad;
  impl->AllocValue(static_cast<size_t>(n), fill);
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(std::vector<int64_t> shape, std::vector<float> data,
                          bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  int64_t n = 1;
  for (int64_t d : impl->shape) n *= d;
  DUET_CHECK_EQ(static_cast<size_t>(n), data.size());
  impl->value = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float v, bool requires_grad) {
  return FromVector({1}, {v}, requires_grad);
}

const std::vector<int64_t>& Tensor::shape() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int64_t Tensor::dim(int i) const {
  DUET_CHECK(impl_ != nullptr);
  DUET_CHECK_GE(i, 0);
  DUET_CHECK_LT(static_cast<size_t>(i), impl_->shape.size());
  return impl_->shape[static_cast<size_t>(i)];
}

int Tensor::ndim() const {
  DUET_CHECK(impl_ != nullptr);
  return static_cast<int>(impl_->shape.size());
}

int64_t Tensor::numel() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->numel();
}

bool Tensor::requires_grad() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->requires_grad;
}

float* Tensor::data() {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value.data();
}

const float* Tensor::data() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value.data();
}

float* Tensor::grad_data() {
  DUET_CHECK(impl_ != nullptr);
  impl_->EnsureGrad();
  return impl_->grad.data();
}

const std::vector<float>& Tensor::grad_vector() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->grad;
}

const std::vector<float>& Tensor::value_vector() const {
  DUET_CHECK(impl_ != nullptr);
  return impl_->value;
}

float Tensor::item() const {
  DUET_CHECK(impl_ != nullptr);
  DUET_CHECK_EQ(impl_->numel(), 1);
  return impl_->value[0];
}

void Tensor::ZeroGrad() {
  DUET_CHECK(impl_ != nullptr);
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

void Tensor::Backward() {
  DUET_CHECK(impl_ != nullptr);
  // Iterative post-order DFS to get a topological order of the nodes that
  // take a gradient; constants (requires_grad == false) are not visited.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      TensorImpl* parent = top.node->parents[top.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  // Leaves start from zeros; op results start empty and get a zeroed
  // buffer from their first consumer (TensorImpl::MutableGrad). Then
  // seed the root with 1s.
  for (TensorImpl* node : order) {
    if (node->backward) {
      node->ReleaseGrad();
    } else {
      node->ResetGrad();
    }
  }
  impl_->EnsureGrad();
  std::fill(impl_->grad.begin(), impl_->grad.end(), 1.0f);
  // Reverse topological order: root last in `order`. Once a node's backward
  // has run, every consumer has already added into its gradient and only
  // that backward reads it, so the buffer goes back right away.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (!node->backward) continue;
    node->EnsureGrad();
    node->backward();
    node->ReleaseGrad();
  }
}

Tensor Tensor::Clone() const {
  DUET_CHECK(impl_ != nullptr);
  return FromVector(impl_->shape, impl_->value, false);
}

Tensor Tensor::Detach() const {
  DUET_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->value = impl_->value;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

std::string Tensor::DebugString() const {
  if (!defined()) return "Tensor[undefined]";
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i > 0) os << "x";
    os << impl_->shape[i];
  }
  os << "]";
  return os.str();
}

}  // namespace duet::tensor
