// Estimator interface and the Q-error metric (paper Eq. 4).
#ifndef DUET_QUERY_ESTIMATOR_H_
#define DUET_QUERY_ESTIMATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace duet::tensor {
// Opaque declarations (definitions: tensor/packed_weights.h and
// tensor/tensor.h) so every estimator TU does not pull in the packed-kernel
// headers for one enum passed by value and one struct passed by reference.
enum class WeightBackend : int32_t;
struct SnapshotStamp;
}  // namespace duet::tensor

namespace duet::query {

/// Common interface of every cardinality estimator in the repository
/// (traditional, query-driven, data-driven and hybrid).
///
/// Thread-safety contract (the serving engine relies on it): while the
/// wrapped model's parameters are unchanging, EstimateSelectivity and
/// EstimateSelectivityBatch must be safe to call concurrently from multiple
/// threads — estimation must not mutate shared state without internal
/// synchronization. The in-tree neural estimators comply: activations live
/// in per-thread inference arenas, sampling-based estimators (Naru/UAE)
/// derive their randomness from per-query deterministic seeds rather than a
/// shared RNG, and Duet/MPSN's masked-weight caches publish under internal
/// locks. Training, fine-tuning and checkpoint loading are NOT safe
/// concurrently with estimation *on the same model instance*. Online
/// updates therefore never mutate a served model in place: they fine-tune a
/// clone and publish it as an immutable snapshot that new dispatches swap
/// to atomically, while in-flight batches finish on the snapshot they
/// started on (see serve/model_registry.h and serve/serving_engine.h —
/// training a *different* model instance concurrently with estimation is
/// safe).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Estimated selectivity in [0, 1].
  virtual double EstimateSelectivity(const Query& query) = 0;

  /// Batch-first entry point: estimates all queries at once. The default
  /// implementation loops the scalar path; neural estimators override it
  /// with a true batched forward (one GEMM for the whole batch, shared
  /// sampling rounds), which is how serving-style throughput is reached.
  /// Overrides must return exactly what the per-query path returns for each
  /// query, in order — and, for the neural estimators, independently of how
  /// the caller groups queries into batches (per-row results are bitwise
  /// batch-size-invariant; this is what lets the serving engine shard a
  /// batch across threads without changing results).
  virtual std::vector<double> EstimateSelectivityBatch(const std::vector<Query>& queries);

  /// Selects the packed-weight backend of the compiled inference plan
  /// (dense fp32 / CSR sparse / int8 / int4 — see
  /// tensor/packed_weights.h). Estimators without a compiled plan ignore it
  /// (default). Configure before sharing the estimator with serving
  /// threads: with estimates in flight the switch is memory-safe (plans
  /// publish atomically — no torn views, see nn/inference_plan.h), but a
  /// racing forward may serve either backend. Model snapshots are
  /// configured exactly once, at publish time.
  virtual void SetInferenceBackend(tensor::WeightBackend backend) { (void)backend; }

  /// Declares the wrapped model's parameters permanently frozen and pins
  /// its compiled-plan caches to `stamp` (snapshot publication — the
  /// serve::ModelRegistry hook, see nn/module.h for the pinning rules).
  /// Estimators over mutable or cache-free models ignore it (default).
  virtual void FreezeInferenceCaches(const tensor::SnapshotStamp& stamp) { (void)stamp; }

  /// Bytes held by the packed weights of compiled inference plans
  /// (nn/inference_plan.h; 0 for estimators without one, or before the
  /// first estimate compiles it).
  virtual uint64_t PackedWeightBytes() const { return 0; }

  /// Cumulative wall-clock microseconds spent compiling inference plans.
  virtual uint64_t PlanCompileMicros() const { return 0; }

  /// Cumulative no-grad forwards served from an already-compiled plan.
  virtual uint64_t PlanCacheHits() const { return 0; }

  /// Display name for bench tables.
  virtual std::string name() const = 0;

  /// In-memory model size in MiB (0 for model-free estimators).
  virtual double SizeMB() const { return 0.0; }

  /// Convenience: selectivity * |T|, floored at 1 tuple (the standard
  /// Q-error convention so empty estimates are comparable). The raw network
  /// output is clamped into [0, 1] first — an untrained or diverged net can
  /// emit NaN or out-of-range values, which must not poison Q-errors.
  double EstimateCardinality(const Query& query, int64_t num_rows);

  /// Batched EstimateCardinality over EstimateSelectivityBatch.
  std::vector<double> EstimateCardinalityBatch(const std::vector<Query>& queries,
                                               int64_t num_rows);

  /// Clamps a raw selectivity into [0, 1]; NaN maps to 0.
  static double ClampSelectivity(double sel);
};

/// Q-Error = max(est, actual) / min(est, actual) with both floored at 1.
double QError(double estimated_cardinality, double true_cardinality);

/// Evaluates an estimator over a labeled workload; returns per-query q-errors.
std::vector<double> EvaluateQErrors(CardinalityEstimator& estimator, const Workload& workload,
                                    int64_t num_rows);

}  // namespace duet::query

#endif  // DUET_QUERY_ESTIMATOR_H_
