// Cardinality providers: the seam between the join-order DP and the
// estimation stack (docs/optimizer.md §2).
//
// The planner (optimizer/planner.h, JoinOrderPlanner) never calls an
// estimator directly. It asks a CardinalityProvider for the cardinality of
// every table subset it is about to enumerate — one batched request per DP
// level — and the provider decides where those numbers come from:
//
//  * ServingCardinalityProvider answers through a zoo-mode
//    serve::ServingEngine: every table's model is registered under a
//    string key and each DP level becomes one keyed Submit burst, so the
//    optimizer's fan-out lands in the micro-batcher together and same-key
//    requests coalesce into fused GEMMs. Degraded
//    answers (shed / expired deadline / fallback / breaker-open) are
//    clamped and *flagged*, never thrown: an unhealthy serving stack
//    degrades the plan search instead of crashing it.
//  * RemoteCardinalityProvider speaks DuetRpc through a net::RpcClient —
//    the same planner runs against a remote primary, one wire frame per
//    (model key, DP level).
//  * EstimatorCardinalityProvider wraps plain per-table
//    query::CardinalityEstimator instances synchronously (the classical
//    baseline row in bench_optimizer_plancost).
//  * ExactCardinalityProvider answers exact subset cardinalities from the
//    planner's own per-key counting — the oracle whose chosen plan is the
//    optimal plan by construction (P-error == 1.0 exactly).
//
// Multi-table composition (docs/optimizer.md §3): the serving stack only
// models single tables, so composed providers turn per-table filter
// selectivities into join cardinalities with an exact join-factor
// correction. JoinKeyStats counts, once per provider, how often each join
// key VALUE occurs in each table; the unfiltered join size of a subset S is
//   J(S) = sum over values v of  prod_{t in S} count_t(v),
// which for two tables is exactly data::EquiJoinSize (the calibration
// property test_join.cc asserts). The composed estimate is then
//   card(S) = (prod_{t in S} sel_t) * J(S),
// i.e. filters are assumed independent of the join key (the only neural
// input) while the key skew itself is exact — on a foreign-key join with no
// filters this is exact, not an estimate.
#ifndef DUET_OPTIMIZER_CARD_PROVIDER_H_
#define DUET_OPTIMIZER_CARD_PROVIDER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/planner.h"
#include "serve/serving_engine.h"

namespace duet::net {
class RpcClient;
}  // namespace duet::net

namespace duet::optimizer {

/// One subset-cardinality answer. `degraded` means some contributing
/// selectivity came back flagged (fallback / deadline_expired / shed, or a
/// failed wire call) — the number is usable but not neural-quality.
struct SubsetEstimate {
  double cardinality = 0.0;
  bool degraded = false;
};

/// Async batching seam between the join-order DP and the estimation stack.
/// The planner opens one Session per plan search and calls EstimateSubsets
/// once per DP level with every subset of that size; the provider submits
/// everything it needs BEFORE waiting on anything (the batching contract,
/// docs/optimizer.md §2).
class CardinalityProvider {
 public:
  /// Per-plan-search state (e.g. the per-table selectivity memo).
  class Session {
   public:
    virtual ~Session() = default;
    /// Cardinality of each requested table subset (bitmask over the star
    /// query's table indices), in request order. One call per DP level.
    virtual std::vector<SubsetEstimate> EstimateSubsets(
        const std::vector<uint32_t>& subsets) = 0;
  };

  virtual ~CardinalityProvider() = default;

  /// Opens a plan-search session for `star`. Providers bound to concrete
  /// tables at construction require `star` to reference those same tables.
  virtual std::unique_ptr<Session> StartPlan(const StarJoinQuery& star) = 0;

  /// Display name for bench tables ("oracle", "neural", ...).
  virtual std::string name() const = 0;
};

/// Exact per-value join-key statistics over a fixed set of tables: the
/// join-factor correction composed providers multiply into per-table
/// selectivities. Values are unified ACROSS tables (value equality, not
/// code equality), so it is exact on arbitrary key dictionaries —
/// UnfilteredJoinSize of a two-table subset equals data::EquiJoinSize.
class JoinKeyStats {
 public:
  JoinKeyStats(const std::vector<const data::Table*>& tables, int join_col);

  /// Exact unfiltered join size of the subset (bitmask over table indices):
  /// sum over key values of the product of per-table occurrence counts.
  /// A singleton subset is the table's row count.
  double UnfilteredJoinSize(uint32_t subset) const;

  int num_tables() const { return static_cast<int>(rows_.size()); }
  double rows(int t) const { return rows_[static_cast<size_t>(t)]; }

 private:
  std::vector<double> rows_;                  // per-table row counts
  std::vector<std::vector<double>> counts_;   // [table][value index], value-unified
};

/// Knobs shared by the composed (selectivity * join-factor) providers.
struct ComposedProviderOptions {
  /// Deadline forwarded with every selectivity request (0 = none).
  int64_t deadline_us = 0;
  /// Memoize per-table selectivities across DP levels (each table's filter
  /// is fixed within one plan search, so one request per table answers the
  /// whole search). Off = re-request per (subset, member table): the raw
  /// optimizer fan-out, ell * C(k, ell) requests at level ell — the shape
  /// whose same-key bursts the micro-batcher fuses into GEMMs.
  bool memoize = true;
  /// Issue selectivity requests one at a time — submit, wait, repeat —
  /// instead of one async burst per level, so each request waits out batch
  /// formation alone and nothing coalesces (the sequential A/B arm in
  /// bench_optimizer_plancost; meaningful for ServingCardinalityProvider).
  bool sequential = false;
};

/// Shared base of the providers that compose per-table selectivities with
/// the JoinKeyStats join factor. Subclasses implement one batched
/// selectivity fetch; degradation flags flow through to SubsetEstimate.
class ComposedCardinalityProvider : public CardinalityProvider {
 public:
  std::unique_ptr<Session> StartPlan(const StarJoinQuery& star) override;

  const JoinKeyStats& stats() const { return stats_; }

 protected:
  ComposedCardinalityProvider(JoinKeyStats stats, ComposedProviderOptions options)
      : stats_(std::move(stats)), options_(options) {}

  /// Fetches the filter selectivity of each listed table (indices into
  /// star.tables, possibly repeated) in ONE burst: submit everything, then
  /// wait. Flags are per answer; a failed fetch returns a flagged 0.
  virtual std::vector<serve::Estimate> FetchSelectivities(
      const StarJoinQuery& star, const std::vector<int>& tables) = 0;

 private:
  class ComposedSession;

  JoinKeyStats stats_;
  ComposedProviderOptions options_;
};

/// Serving-stack provider: selectivities come from a zoo-mode
/// serve::ServingEngine (CHECKed: engine.keyed()). `model_keys[t]` names
/// table t's artifact and each level is one keyed Submit burst.
class ServingCardinalityProvider : public ComposedCardinalityProvider {
 public:
  ServingCardinalityProvider(serve::ServingEngine& engine,
                             std::vector<std::string> model_keys, JoinKeyStats stats,
                             ComposedProviderOptions options = {});

  std::string name() const override { return "neural"; }

 protected:
  std::vector<serve::Estimate> FetchSelectivities(
      const StarJoinQuery& star, const std::vector<int>& tables) override;

 private:
  serve::ServingEngine& engine_;
  std::vector<std::string> model_keys_;
  bool sequential_ = false;
  int64_t deadline_us_ = 0;
};

/// Remote provider: the same composition, selectivities fetched from a
/// remote primary over DuetRpc (net/client.h). Each level groups its
/// requests by model key into one wire frame per table — the wire-level
/// batching the server's micro-batcher fuses. A failed call (lost
/// connection, server error frame) yields flagged zeros, degrading the
/// plan search like a shed request would.
class RemoteCardinalityProvider : public ComposedCardinalityProvider {
 public:
  RemoteCardinalityProvider(net::RpcClient& client, std::vector<std::string> model_keys,
                            JoinKeyStats stats, ComposedProviderOptions options = {});

  std::string name() const override { return "remote"; }

 protected:
  std::vector<serve::Estimate> FetchSelectivities(
      const StarJoinQuery& star, const std::vector<int>& tables) override;

 private:
  net::RpcClient& client_;
  std::vector<std::string> model_keys_;
  uint64_t deadline_us_ = 0;
};

/// Classical baseline provider: per-table query::CardinalityEstimator
/// instances called synchronously (no serving stack). `estimators[t]`
/// answers table t; all must outlive the provider.
class EstimatorCardinalityProvider : public ComposedCardinalityProvider {
 public:
  EstimatorCardinalityProvider(std::vector<query::CardinalityEstimator*> estimators,
                               JoinKeyStats stats, ComposedProviderOptions options = {},
                               std::string name = "classical");

  std::string name() const override { return name_; }

 protected:
  std::vector<serve::Estimate> FetchSelectivities(
      const StarJoinQuery& star, const std::vector<int>& tables) override;

 private:
  std::vector<query::CardinalityEstimator*> estimators_;
  std::string name_;
};

/// Oracle provider: exact subset cardinalities from a StarJoinPlanner's
/// per-key counting (StarJoinPlanner::ExactSubsetCard). Bitwise-identical
/// numbers to the DP inside OptimalPlan(), so a JoinOrderPlanner driven by
/// this provider chooses a cost-optimal plan by construction — the
/// P-error == 1.0 row. Bound to the planner's star query; the session
/// ignores the star argument.
class ExactCardinalityProvider : public CardinalityProvider {
 public:
  explicit ExactCardinalityProvider(const StarJoinPlanner& exact) : exact_(exact) {}

  std::unique_ptr<Session> StartPlan(const StarJoinQuery& star) override;
  std::string name() const override { return "oracle"; }

 private:
  class ExactSession;
  const StarJoinPlanner& exact_;
};

}  // namespace duet::optimizer

#endif  // DUET_OPTIMIZER_CARD_PROVIDER_H_
