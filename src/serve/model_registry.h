// Versioned model snapshots for zero-downtime serving.
//
// The paper's headline update claim (Sec. IV-A/IV-D: drift is handled by
// cheap fine-tuning, not retraining) only pays off if an update can reach
// production without taking the estimator offline. The registry provides
// the mechanism: every published model is an immutable, refcounted
// *snapshot* — weights and compiled plan frozen and pinned under one
// tensor::SnapshotStamp — and the "current" snapshot is a
// single atomically-swapped shared_ptr. Serving dispatches acquire-load the
// pointer once per batch and keep their snapshot alive until the batch
// completes; publishers prepare the next snapshot entirely off to the side
// and swap it in with one release-store. No quiesce, no reader lock, no
// torn state: this is multi-version concurrency for models, the upgrade
// from the PR 2-4 "bump the global version and repack" coherence scheme
// (whose caches a concurrently-training clone would otherwise thrash — see
// the pinning rules in nn/inference_plan.h).
//
// Lifecycle (see docs/serving.md for the full state diagram):
//
//   clone -> fine-tune -> validate -> freeze+prewarm -> swap -> retire
//
// Retirement is automatic: the registry holds only the current snapshot
// strongly; superseded snapshots die when their last in-flight batch (or
// external holder) releases them. AliveSnapshots() observes the live set
// through weak references, which is how tests prove churn leaks nothing.
#ifndef DUET_SERVE_MODEL_REGISTRY_H_
#define DUET_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "core/duet_model.h"
#include "tensor/packed_weights.h"
#include "tensor/tensor.h"

namespace duet::serve {

/// One immutable published model version: the frozen model, a ready
/// estimator adapter over it, and the snapshot stamp its pinned caches are
/// keyed under. Snapshots are shared as shared_ptr<const ModelSnapshot>;
/// the refcount IS the liveness rule (current pointer + in-flight batches).
class ModelSnapshot {
 public:
  ModelSnapshot(std::unique_ptr<core::DuetModel> model, tensor::SnapshotStamp stamp);

  uint64_t id() const { return stamp_.id; }
  const tensor::SnapshotStamp& stamp() const { return stamp_; }
  const core::DuetModel& model() const { return *model_; }
  /// The estimator serving dispatches run on. Estimation entry points are
  /// const-thread-safe (the model is frozen); the non-const return type
  /// mirrors the CardinalityEstimator interface.
  query::CardinalityEstimator& estimator() const { return *estimator_; }

 private:
  std::unique_ptr<core::DuetModel> model_;
  std::unique_ptr<core::DuetEstimator> estimator_;
  tensor::SnapshotStamp stamp_;
};

/// Registry knobs. The registry owns the inference configuration of every
/// snapshot it publishes (the backend is applied before freezing),
/// so all snapshots of one registry serve under one configuration and a
/// swap never changes numerics-vs-configuration semantics mid-stream.
struct RegistryOptions {
  tensor::WeightBackend backend = tensor::WeightBackend::kDenseF32;
  /// Compile the plan BEFORE the swap (one wildcard estimate on the
  /// publisher's thread), so the first post-swap dispatch never pays the
  /// compile latency. Off = lazy build on first traffic.
  bool prewarm = true;
  /// With prewarm on: additionally run one wildcard batch of this size so
  /// the publisher thread's TensorArena free lists (tensor/tensor.h)
  /// hold recycled activation buffers for batch-shaped forwards — the first
  /// post-swap batch served from this thread then performs zero fresh
  /// activation allocations (asserted via the TensorArena alloc
  /// counters). The arena is thread-local, so this warms the *publishing*
  /// thread's pools; engine worker threads warm their own on first traffic,
  /// and a swap never invalidates them (pools are keyed by buffer size, not
  /// by model). 0 disables the batch pass (plan prewarm only).
  int64_t prewarm_arena_batch = 64;
};

/// Cumulative registry counters plus point-in-time gauges.
struct RegistryStats {
  uint64_t published = 0;        ///< snapshots published (incl. the initial one)
  uint64_t current_id = 0;       ///< stamp id of the current snapshot
  uint64_t alive = 0;            ///< snapshots still referenced somewhere
  /// Wall time of the last Publish: total (freeze + prewarm + swap) and the
  /// pointer swap alone — the only part concurrent dispatches can even
  /// observe, and the measured "swap latency" docs/serving.md quotes.
  double last_publish_micros = 0.0;
  double last_swap_micros = 0.0;
};

/// Holds the current snapshot and the publish path. Publish/CloneCurrent
/// may be called from any thread (serialized internally); Current() is
/// wait-free for practical purposes — one atomic shared_ptr acquire-load.
class ModelRegistry {
 public:
  /// Publishes `initial` as snapshot #1 (frozen + configured like any other
  /// publish; counts toward `published`).
  explicit ModelRegistry(std::unique_ptr<core::DuetModel> initial,
                         RegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The snapshot new dispatches should serve on. Callers keep the returned
  /// shared_ptr for the duration of their batch: that is what lets an
  /// in-flight batch finish on its snapshot while a publish swaps the
  /// current pointer underneath it.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Freezes `model` (applies the registry backend/plan configuration, pins
  /// its caches under a fresh stamp, optionally prewarms) and atomically
  /// swaps it in as the current snapshot. Returns the published snapshot.
  /// The previous snapshot retires when its last holder releases it.
  std::shared_ptr<const ModelSnapshot> Publish(std::unique_ptr<core::DuetModel> model);

  /// Mutable deep copy of the current snapshot's model — the first step of
  /// every update round (safe concurrently with serving; see
  /// core::CloneModel).
  std::unique_ptr<core::DuetModel> CloneCurrent() const;

  /// Serializes the current snapshot as a snapshot artifact at `path`
  /// (artifact/artifact.h), compiled under the registry backend — i.e. the
  /// Publish-path configuration, so a zoo load of the file serves bitwise
  /// what this registry's dispatches serve. Clean error on I/O failure or
  /// a backbone with no compiled-plan form.
  artifact::ArtifactStatus SaveCurrentArtifact(const std::string& path) const;

  /// Number of snapshots ever published that are still alive (current +
  /// any still pinned by in-flight batches or external holders). Steady
  /// state after traffic drains is exactly 1; more than 1 persistently
  /// means someone leaks snapshot handles.
  uint64_t AliveSnapshots() const;

  RegistryStats stats() const;
  const RegistryOptions& options() const { return options_; }

 private:
  RegistryOptions options_;
  /// Swapped with std::atomic_store_explicit / read with
  /// std::atomic_load_explicit (the C++17 shared_ptr atomic access
  /// functions) — the one acquire-load on the estimate path.
  std::shared_ptr<const ModelSnapshot> current_;
  mutable std::mutex publish_mu_;  ///< serializes publishers, not readers
  /// Weak view of everything ever published, for leak accounting.
  mutable std::mutex history_mu_;
  mutable std::vector<std::weak_ptr<const ModelSnapshot>> history_;
  mutable std::mutex stats_mu_;
  RegistryStats stats_;
};

}  // namespace duet::serve

#endif  // DUET_SERVE_MODEL_REGISTRY_H_
