#include "serve/model_registry.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "artifact/artifact.h"
#include "core/finetune.h"
#include "serve/fault_injector.h"

namespace duet::serve {

ModelSnapshot::ModelSnapshot(std::unique_ptr<core::DuetModel> model,
                             tensor::SnapshotStamp stamp)
    : model_(std::move(model)), stamp_(stamp) {
  DUET_CHECK(model_ != nullptr);
  estimator_ = std::make_unique<core::DuetEstimator>(*model_);
}

ModelRegistry::ModelRegistry(std::unique_ptr<core::DuetModel> initial,
                             RegistryOptions options)
    : options_(options) {
  Publish(std::move(initial));
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Current() const {
  // The one acquire-load on the estimate path: pairs with the release store
  // in Publish, so a dispatch that sees the new pointer also sees the fully
  // frozen, prewarmed snapshot behind it.
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Publish(
    std::unique_ptr<core::DuetModel> model) {
  DUET_CHECK(model != nullptr);
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  Timer publish_timer;

  // Fault point: publication can fail for real (pack/plan compilation below
  // throws, allocation fails). Everything that can throw runs before the
  // snapshot becomes visible, so a failed Publish leaves the previous
  // snapshot serving and the registry state untouched — callers (the update
  // worker) retry with backoff.
  FaultInjector::MaybeThrow(FaultPoint::kPublish, "injected publish failure");

  // Configure-then-freeze, all before the snapshot is visible: the
  // registry's backend choice is applied while this thread is the model's
  // sole user, then the plan cache is pinned so the fine-tune worker's
  // version bumps (or any other model's training) can never invalidate it.
  model->SetInferenceBackend(options_.backend);
  const tensor::SnapshotStamp stamp = tensor::AcquireSnapshotStamp();
  model->FreezeInferenceCaches(stamp);
  if (options_.prewarm) {
    // One wildcard estimate compiles the plan on the publisher's thread,
    // so post-swap traffic starts on a warm cache.
    model->EstimateSelectivity(query::Query{});
    if (options_.prewarm_arena_batch > 0) {
      // Arena warm-up: one representative-shape batch pass populates this
      // thread's TensorArena free lists with batch-sized activation
      // buffers before the swap, so the first post-swap batch served from
      // this thread allocates nothing (see RegistryOptions).
      const std::vector<query::Query> warm(
          static_cast<size_t>(options_.prewarm_arena_batch), query::Query{});
      model->EstimateSelectivityBatch(warm);
    }
  }
  auto snapshot = std::make_shared<const ModelSnapshot>(std::move(model), stamp);
  {
    std::lock_guard<std::mutex> history_lock(history_mu_);
    history_.push_back(snapshot);
  }

  Timer swap_timer;
  std::atomic_store_explicit(&current_, std::shared_ptr<const ModelSnapshot>(snapshot),
                             std::memory_order_release);
  const double swap_micros = swap_timer.Micros();

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.published;
  stats_.current_id = stamp.id;
  stats_.last_publish_micros = publish_timer.Micros();
  stats_.last_swap_micros = swap_micros;
  return snapshot;
}

std::unique_ptr<core::DuetModel> ModelRegistry::CloneCurrent() const {
  const std::shared_ptr<const ModelSnapshot> snapshot = Current();
  return core::CloneModel(snapshot->model());
}

artifact::ArtifactStatus ModelRegistry::SaveCurrentArtifact(const std::string& path) const {
  // The pin keeps the snapshot alive through serialization; writing is
  // read-only on the frozen model, so concurrent dispatches (and even a
  // concurrent publish) stay undisturbed.
  const std::shared_ptr<const ModelSnapshot> snapshot = Current();
  return artifact::WriteArtifact(path, snapshot->model(), options_.backend);
}

uint64_t ModelRegistry::AliveSnapshots() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  uint64_t alive = 0;
  // Prune expired entries while counting so churny workloads do not grow
  // the history without bound. Skip the self-assignment when nothing has
  // been pruned yet: moving a weak_ptr onto itself empties it.
  auto out = history_.begin();
  for (auto it = history_.begin(); it != history_.end(); ++it) {
    if (it->expired()) continue;
    ++alive;
    if (out != it) *out = std::move(*it);
    ++out;
  }
  history_.erase(out, history_.end());
  return alive;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.alive = AliveSnapshots();
  return snapshot;
}

}  // namespace duet::serve
