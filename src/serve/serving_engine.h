// Concurrent serving engine: multi-threaded batch sharding, async
// micro-batching, and zero-downtime hot swap of model snapshots.
//
// The paper's serving claim is twofold: estimation is cheap enough for
// online use (Fig. 6/7), and *updates* are cheap too — drift is handled by
// fine-tuning, not retraining (Sec. IV-A/IV-D). ServingEngine covers both:
//
//  * EstimateBatch(queries) shards a batch across the process pool
//    (ThreadPool::Global(), the one executor for shards and kernel chunks).
//    Shards split on query boundaries only, and the kernel invariant (per-
//    row results are bitwise independent of batch size, see
//    docs/architecture.md) makes the sharded result bitwise equal to the
//    single-thread batch path — parallelism is free of numeric drift.
//  * Submit(query) -> Future enqueues one query into a micro-batching
//    scheduler: pending queries are collected until `max_batch` of them are
//    waiting or the oldest has waited `max_wait_us`, then dispatched as one
//    sharded batch. This converts high-QPS single-query traffic into the
//    batch shapes the engine is fast at.
//  * Constructed over a serve::ModelRegistry, every dispatch resolves the
//    current model snapshot with one atomic acquire-load and pins it for
//    the batch's duration: in-flight batches finish on the snapshot they
//    started on, new dispatches pick up the latest published snapshot, and
//    a publish (background fine-tune, serve/update_worker.h) swaps models
//    with NO quiesce and no lock on the estimate path. Each batch is served
//    end-to-end by exactly one snapshot — never a mid-batch mix.
//
// Thread-safety contract:
//  * EstimateBatch and Submit may be called concurrently from any number of
//    client threads. Completion is tracked per call, never with a global
//    pool barrier, so concurrent callers cannot observe each other. A sync
//    call made from inside a pool worker runs its shards inline on that
//    worker, so it never blocks one waiting for another.
//  * Registry mode: parameter updates NEVER touch a served model. The
//    update path clones the current snapshot, fine-tunes the clone, and
//    publishes it as a new immutable snapshot whose caches are pinned
//    (nn/layers.h); superseded snapshots retire when their last in-flight
//    batch releases them. Training a clone concurrently with serving is
//    safe by construction — the old "quiesce serving around training"
//    rule survives only for fixed-estimator mode below.
//  * Fixed-estimator mode (the estimator-reference constructor): the
//    wrapped estimator must satisfy the CardinalityEstimator concurrency
//    contract, and training / fine-tuning / checkpoint loading that
//    estimator's model must not run while estimates are in flight — drain
//    futures and stop issuing calls first. Parameter updates then
//    invalidate the compiled plan via tensor::BumpParameterVersion(), so
//    serving resumed afterwards sees the new weights. Wrap a ModelRegistry
//    instead to drop this restriction.
//
// Resilience (docs/resilience.md): requests carry optional deadlines, the
// async queue is optionally bounded with shed-on-full, a circuit breaker
// trips to fallback-only serving after consecutive neural failures, and an
// attached classical fallback estimator answers every degraded query with a
// bounded-error estimate flagged in the result. The engine never blocks a
// caller on overload and never lets a neural failure escape as a crash.
#ifndef DUET_SERVE_SERVING_ENGINE_H_
#define DUET_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "query/estimator.h"
#include "query/query.h"

namespace duet::serve {

class ModelRegistry;
class ModelSnapshot;
class ModelZoo;
class ZooHandle;
class UpdateWorker;

/// Serving engine knobs. There is no worker-count knob: shards run on the
/// process pool, sized by ThreadPool::SetGlobalThreads.
struct ServingOptions {
  /// Sharding floor: a batch is split into at most
  /// min(pool threads, batch / min_shard) shards (at least one) so tiny
  /// batches are not scattered across workers where per-shard overhead
  /// would dominate.
  int64_t min_shard = 8;
  /// Micro-batching: dispatch as soon as this many queries are pending...
  /// Pending queries with the same model key are served as one fused
  /// dispatch (a GEMM over the stacked rows, not N batch-1 GEMVs), so 1 is
  /// the unfused A/B arm: every admitted query is resolved and served alone.
  /// Per-request results are bitwise identical either way (kernel batch
  /// invariance, docs/architecture.md §2).
  int64_t max_batch = 64;
  /// ...or when the oldest pending query has waited this long.
  int64_t max_wait_us = 200;
  /// Admission control: async queries pending beyond this depth are shed —
  /// their Future completes immediately with a flagged fallback estimate,
  /// never blocking the caller. 0 = unbounded (no shedding).
  int64_t max_queue = 0;
  /// Deadline applied to Submit calls that pass none (0 = no default).
  /// Deadlines are relative to submission; the scheduler drops expired
  /// entries before dispatch and serves them from the fallback instead.
  int64_t default_deadline_us = 0;
  /// Circuit breaker: after this many consecutive failed neural dispatches
  /// the engine serves fallback-only, then probes its way back with single
  /// dispatches after breaker_cooldown_us (docs/resilience.md §3).
  int64_t breaker_threshold = 5;
  int64_t breaker_cooldown_us = 50 * 1000;
};

/// One query's answer plus how it was produced. EstimateBatchEx and
/// Future::Result() return these; the plain EstimateBatch / Future::Wait
/// surfaces keep returning bare selectivities.
struct Estimate {
  double selectivity = 0.0;
  /// Served by the attached classical fallback (or 0.0 with none attached)
  /// rather than the neural model — because the query was shed, expired, hit
  /// a neural failure, or the circuit breaker was open.
  bool fallback = false;
  /// The request missed its deadline before (async) or during (sync)
  /// estimation.
  bool deadline_expired = false;
  /// Rejected at admission: the bounded async queue was full.
  bool shed = false;

  bool degraded() const { return fallback || deadline_expired || shed; }
};

/// Cumulative counters (monotone since construction), plus point-in-time
/// gauges of the serving configuration's cache footprint and snapshot.
struct ServingStats {
  uint64_t queries = 0;             ///< queries completed (sync + async)
  uint64_t sync_batches = 0;        ///< EstimateBatch client calls
  uint64_t micro_batches = 0;       ///< async scheduler dispatches
  uint64_t shards = 0;              ///< shards run (inline or on the pool)
  int64_t largest_micro_batch = 0;  ///< max async dispatch size observed
  /// Async queries served through a fused dispatch group (size >= 2): the
  /// scheduler coalesced them with concurrent same-target requests into one
  /// batched GEMM execution instead of independent GEMVs. 0 with
  /// ServingOptions::max_batch == 1.
  uint64_t fused_requests = 0;
  /// Median fused-group size, over groups of size >= 2 (exact histogram,
  /// not log-bucketed; 0.0 until the first fused group dispatches).
  double fusion_batch_p50 = 0.0;
  /// Registry mode: the snapshot id the most recent dispatch served on.
  /// 0 in fixed and zoo mode — there is no registry snapshot (zoo models
  /// differ per key; re-registrations count in ZooModelStats::evictions).
  uint64_t snapshot_id = 0;
  /// Registry mode: dispatches that observed a different snapshot than the
  /// previous dispatch did — the number of hot swaps traffic has crossed.
  /// 0 in fixed and zoo mode.
  uint64_t snapshot_swaps = 0;
  /// Observed-cardinality pairs routed through ReportObserved.
  uint64_t feedback_reported = 0;
  /// Bytes held by the serving model's compiled-plan packed weights when
  /// stats() was taken (0 until first estimate); in registry mode, read
  /// from the current snapshot.
  uint64_t packed_weight_bytes = 0;
  /// Cumulative wall-clock microseconds the serving model spent compiling
  /// inference plans (in registry mode: the current snapshot's model).
  uint64_t plan_compile_micros = 0;
  /// Cumulative no-grad forwards served from an already-compiled plan
  /// (cache hits).
  uint64_t plan_cache_hits = 0;
  /// Queries whose deadline expired before/during estimation (each also
  /// counts in fallback_served when answered by the fallback).
  uint64_t deadline_missed = 0;
  /// Queries rejected at admission because the bounded queue was full.
  uint64_t shed = 0;
  /// Queries answered by the fallback path (shed + expired + neural
  /// failures + breaker-open dispatches).
  uint64_t fallback_served = 0;
  /// Shard tasks whose neural estimate threw (each failed shard's queries
  /// were answered by the fallback).
  uint64_t neural_failures = 0;
  /// Times the circuit breaker tripped open.
  uint64_t breaker_trips = 0;
  /// Breaker state when stats() was taken: 0 closed, 1 open, 2 half-open.
  uint64_t breaker_state = 0;
  /// Async queue depth when stats() was taken / deepest ever observed.
  int64_t queue_depth = 0;
  int64_t queue_high_water = 0;
  /// Submission-to-completion latency percentiles over admitted async
  /// queries (log-bucketed histogram: values are bucket upper bounds, ~2x
  /// resolution; 0 until the first async query completes). p999 is reported
  /// at the same quantile set as the network front-end's NetStats
  /// (common/latency_histogram.h), so in-process and wire latency are
  /// comparable.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
};

/// Shards batches across the process pool, micro-batches async
/// single-query traffic, and (in registry mode) hot-swaps model snapshots
/// under live traffic. One engine owns its scheduler thread; destruction
/// drains all pending async queries before joining it.
class ServingEngine {
  struct Pending;  // forward: shared slot between Future and scheduler

 public:
  /// Completion handle for one submitted query. Cheap to copy; all copies
  /// refer to the same result slot. A default-constructed Future is empty
  /// (valid() == false) and must not be waited on.
  class Future {
   public:
    Future() = default;

    bool valid() const { return state_ != nullptr; }

    /// True once the result is available; never blocks.
    bool Ready() const;

    /// Blocks until the result is available and returns the selectivity
    /// (exactly what EstimateSelectivityBatch would return for this query,
    /// unless the result was degraded — check Result().degraded()).
    /// Safe to call from multiple threads and more than once.
    double Wait() const;

    /// Blocks like Wait() but returns the full result, including the
    /// degradation flags (fallback / deadline_expired / shed).
    Estimate Result() const;

   private:
    friend class ServingEngine;
    explicit Future(std::shared_ptr<Pending> state) : state_(std::move(state)) {}
    std::shared_ptr<Pending> state_;
  };

  /// Fixed-estimator mode: the estimator must outlive the engine and obey
  /// the concurrency contract in query/estimator.h (including its quiesce
  /// rule for parameter updates). The engine serves the estimator as
  /// configured — set its weight backend (SetInferenceBackend) before
  /// wrapping it; the engine never changes it.
  explicit ServingEngine(query::CardinalityEstimator& estimator, ServingOptions options = {});

  /// Registry mode: every dispatch serves the registry's current snapshot;
  /// publishes hot-swap under live traffic with no quiesce. The registry
  /// must outlive the engine. RegistryOptions governs the weight backend.
  explicit ServingEngine(ModelRegistry& registry, ServingOptions options = {});

  /// Zoo mode: requests are routed by model key through a serve::ModelZoo —
  /// every dispatch resolves and pins (ZooPin) the named artifact model, so
  /// a model serving an in-flight batch is never evicted under it, and a
  /// key whose artifact fails to load degrades that batch to the fallback
  /// (flagged) instead of crashing. The zoo must outlive the engine.
  /// Artifacts are frozen at write time, weight backend included.
  explicit ServingEngine(ModelZoo& zoo, ServingOptions options = {});

  /// Drains the async queue (every issued Future still completes), then
  /// stops and joins the scheduler.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Every request carries a model key: zoo engines route by it, and the
  // single-model engines (fixed, registry) serve the empty key. Misuse in
  // either direction — a key-less call on a zoo engine, a keyed call on a
  // fixed or registry engine — CHECK-fails on the caller's thread. The
  // key-less overloads are forwards that pass the empty key.

  /// Synchronous sharded estimation: splits `queries` into shards on query
  /// boundaries and runs them concurrently on the process pool. Returns exactly
  /// what the serving model's EstimateSelectivityBatch(queries) returns
  /// (bitwise), in order. Safe to call concurrently with other
  /// EstimateBatch / Submit calls — and, in registry mode, with snapshot
  /// publishes: the whole batch runs on the snapshot current at dispatch.
  /// The model is resolved (and pinned) once per call; *snapshot_id, when
  /// non-null, receives the registry snapshot id, the zoo artifact
  /// fingerprint, or 0 in fixed mode.
  std::vector<double> EstimateBatch(const std::string& model_key,
                                    const std::vector<query::Query>& queries,
                                    uint64_t* snapshot_id = nullptr);
  std::vector<double> EstimateBatch(const std::vector<query::Query>& queries,
                                    uint64_t* snapshot_id = nullptr) {
    return EstimateBatch(std::string(), queries, snapshot_id);
  }

  /// EstimateBatch with per-request resilience metadata. `deadline_us` is a
  /// latency budget relative to the call (0 = none): the sync path runs on
  /// the caller's thread so the batch is always attempted, but results that
  /// arrive after the budget are flagged deadline_expired (and counted) so
  /// the caller knows the optimizer has moved on. Degraded queries (neural
  /// failure, breaker open, a zoo key whose artifact fails to load) carry
  /// fallback == true.
  std::vector<Estimate> EstimateBatchEx(const std::string& model_key,
                                        const std::vector<query::Query>& queries,
                                        int64_t deadline_us = 0,
                                        uint64_t* snapshot_id = nullptr);
  std::vector<Estimate> EstimateBatchEx(const std::vector<query::Query>& queries,
                                        int64_t deadline_us = 0,
                                        uint64_t* snapshot_id = nullptr) {
    return EstimateBatchEx(std::string(), queries, deadline_us, snapshot_id);
  }

  /// Asynchronous single-query estimation through the micro-batching
  /// scheduler. The returned Future completes after the query's micro-batch
  /// is dispatched and estimated; its value is identical to what the query
  /// would get from EstimateBatch at that micro-batch's snapshot. At
  /// dispatch the scheduler groups pending queries by key and serves each
  /// group as one fused batch on one resolved model (never a mid-group mix
  /// of models or snapshots).
  ///
  /// `deadline_us` (relative to submission; 0 = options().default_deadline_us,
  /// and 0 again = none) bounds how long the query may wait: the scheduler
  /// drops expired entries before dispatch and answers them from the
  /// fallback, flagged deadline_expired. If the queue is bounded
  /// (options().max_queue) and full, the query is shed instead of enqueued:
  /// the Future completes immediately with a flagged fallback estimate —
  /// Submit never blocks on overload.
  Future Submit(const std::string& model_key, query::Query query, int64_t deadline_us = 0);
  Future Submit(query::Query query, int64_t deadline_us = 0) {
    return Submit(std::string(), std::move(query), deadline_us);
  }

  /// Completion-callback variant of Submit for event-driven callers (the
  /// epoll front-end, src/net/server.h): `done` is invoked exactly once
  /// with the final Estimate — from the scheduler/worker thread when the
  /// query's micro-batch completes, or synchronously on the caller's thread
  /// when it is shed at admission. The callback must be cheap and
  /// non-blocking (it runs inside the dispatch path); it must not call back
  /// into this engine. Identical routing, deadlines, shedding, fusion and
  /// stats to Submit().
  void SubmitWithCallback(const std::string& model_key, query::Query query,
                          int64_t deadline_us, std::function<void(const Estimate&)> done);
  void SubmitWithCallback(query::Query query, int64_t deadline_us,
                          std::function<void(const Estimate&)> done) {
    SubmitWithCallback(std::string(), std::move(query), deadline_us, std::move(done));
  }

  /// Admission hook for front-ends that maintain their own in-flight
  /// budgets (src/net/server.h): answers every query straight from the
  /// attached fallback on the caller's thread, flagged shed + fallback,
  /// and counts them like queue-overflow sheds — the docs/resilience.md §2
  /// shed path without touching the async queue. Never blocks or throws.
  std::vector<Estimate> ShedBatch(const std::vector<query::Query>& queries);

  /// True when dispatches are routed by model key (zoo mode) — callers must
  /// pass a non-empty key; false for fixed/registry engines, which serve the
  /// empty key.
  bool keyed() const { return zoo_ != nullptr; }

  /// Feedback hook (the adaptation input): reports the true cardinality the
  /// execution engine observed for a served query. Counted, and routed to
  /// the attached UpdateWorker's feedback buffer when one is attached (with
  /// none attached the count is the only effect). Cheap; serving-path safe.
  void ReportObserved(const query::Query& query, double true_cardinality);

  /// Attaches (or detaches, with nullptr) the update worker that receives
  /// ReportObserved feedback. The worker must outlive the engine or be
  /// detached first.
  void AttachUpdateWorker(UpdateWorker* worker);

  /// Attaches (or detaches, with nullptr) the classical fallback estimator
  /// that answers degraded queries — typically one of the traditional
  /// baselines (baselines::IndependenceEstimator, baselines::SamplingEstimator):
  /// model-free, thread-safe after construction, and orders of magnitude
  /// cheaper than the neural path. It must outlive the engine or be
  /// detached first. With none attached, degraded queries return
  /// selectivity 0.0 (still flagged) rather than blocking or throwing.
  void AttachFallback(query::CardinalityEstimator* fallback);

  /// Snapshot of the cumulative counters.
  ServingStats stats() const;

  const ServingOptions& options() const { return options_; }

 private:
  /// The public constructors delegate here: exactly one of `estimator`,
  /// `registry`, `zoo` is non-null. Validates the options and starts the
  /// scheduler.
  ServingEngine(query::CardinalityEstimator* estimator, ModelRegistry* registry,
                ModelZoo* zoo, ServingOptions options);

  /// What one dispatch serves on: the estimator plus the pin keeping it
  /// alive for the batch's duration (registry snapshot or zoo model).
  struct Target {
    query::CardinalityEstimator* estimator = nullptr;
    std::shared_ptr<const ModelSnapshot> pin;
    /// Zoo mode: the pinned model (nullptr estimator + nullptr zoo_pin
    /// means the key's artifact failed to load — serve the fallback).
    std::shared_ptr<const ZooHandle> zoo_pin;
    /// Registry snapshot id or zoo artifact fingerprint (0 in fixed mode).
    uint64_t snapshot_id = 0;
  };

  /// Resolves the serving target for one dispatch of `model_key`: zoo
  /// engines pin the key's artifact model (a failed load yields an empty
  /// target, and the dispatch degrades to the fallback, flagged), registry
  /// engines acquire-load the current snapshot, fixed engines return the
  /// estimator.
  Target Resolve(const std::string& model_key) const;

  /// Shared Submit implementation (Future and callback flavours both funnel
  /// here; `done` may be empty).
  Future SubmitImpl(const std::string& model_key, query::Query query, int64_t deadline_us,
                    std::function<void(const Estimate&)> done);

  /// Serves one dispatch group — the sync batch, or one key's fused group of
  /// an async micro-batch: resolve, NoteDispatch, ServeBatch, and the zoo
  /// per-model serve count. Returns the served target's snapshot_id.
  uint64_t ServeGroup(const std::string& model_key, const std::vector<query::Query>& queries,
                      double* out, bool* degraded);

  /// Counts a registry dispatch against `target`'s snapshot (swap
  /// detection); fixed and zoo targets are not counted.
  void NoteDispatch(const Target& target);

  /// Runs `queries` sharded across the process pool on `target`, writing into
  /// out[0..n). A shard whose neural estimate throws is answered by the
  /// fallback (flagged in `degraded` when non-null) — the exception never
  /// escapes. Returns the number of failed shards.
  int64_t EstimateSharded(const Target& target, const std::vector<query::Query>& queries,
                          double* out, bool* degraded);

  /// Breaker-aware batch serve: full fallback when the target is unresolved
  /// or the breaker is open, else EstimateSharded with the dispatch outcome
  /// fed back to the breaker.
  void ServeBatch(const Target& target, const std::vector<query::Query>& queries,
                  double* out, bool* degraded);

  /// Answers queries[lo..lo+len) from the attached fallback estimator (0.0
  /// each with none attached / on fallback failure) and counts them served.
  void ServeFallback(const std::vector<query::Query>& queries, int64_t lo, int64_t len,
                     double* out);

  /// Breaker gate for one dispatch: true = attempt the neural path (possibly
  /// as the elected half-open probe), false = serve fallback.
  bool AllowNeural();

  /// Feeds one dispatch outcome to the breaker (trip / probe / reset).
  void RecordNeuralOutcome(bool failed);

  /// Scheduler loop: collects pending queries into micro-batches.
  void SchedulerLoop();

  /// Dispatches up to max_batch pending entries (caller holds no locks).
  void DispatchMicroBatch(std::vector<std::shared_ptr<Pending>> batch);

  query::CardinalityEstimator* fixed_estimator_ = nullptr;  // fixed mode
  ModelRegistry* registry_ = nullptr;                       // registry mode
  ModelZoo* zoo_ = nullptr;                                 // zoo mode
  std::atomic<UpdateWorker*> feedback_{nullptr};
  std::atomic<query::CardinalityEstimator*> fallback_{nullptr};
  ServingOptions options_;

  // Circuit breaker (docs/resilience.md §3): lock-free state machine fed by
  // dispatch outcomes. 0 = closed, 1 = open, 2 = half-open (one elected
  // probe dispatch in flight).
  std::atomic<int> breaker_state_{0};
  std::atomic<int64_t> consecutive_failures_{0};
  std::atomic<int64_t> breaker_open_until_us_{0};

  // Async scheduler state. queue_mu_ is mutable so stats() can read the
  // queue-depth gauge.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Pending>> pending_;
  bool stop_ = false;
  std::thread scheduler_;

  mutable std::mutex stats_mu_;
  ServingStats stats_;
  /// Submission-to-completion latency of admitted async queries.
  LatencyHistogram latency_;
  /// Exact histogram of fused dispatch-group sizes (size -> group count;
  /// sizes >= 2 only — bounded by max_batch, so the map stays tiny).
  /// Guarded by stats_mu_; stats() derives fusion_batch_p50 from it.
  std::map<int64_t, uint64_t> fusion_size_counts_;
  uint64_t fusion_group_count_ = 0;
};

}  // namespace duet::serve

#endif  // DUET_SERVE_SERVING_ENGINE_H_
