// Benchmark-side tracing: delegating wrappers around the library's public
// boundaries, so per-layer numbers need no hook inside src/.
//
//  * TracedEstimator wraps a DuetModel in fixed-estimator mode. While
//    tracing is on it times every model call and splits it into the three
//    public stage functions — DuetInputEncoder::EncodeQueryBatch,
//    DuetModel::ForwardLogits and core::MaskedLogSelectivity — checking on
//    a sample of calls that the split answer is bitwise equal to
//    EstimateSelectivityBatch. While tracing is off it only delegates.
//  * TracedProvider wraps a CardinalityProvider and times each DP-level
//    EstimateSubsets burst.
//
// Spans stay in memory (one mutex per wrapper, taken only while tracing)
// and are written out by the caller at exit.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/duet_model.h"
#include "optimizer/card_provider.h"
#include "query/estimator.h"

namespace perfbench {

/// Order-sensitive hash of a query's predicates; matches a query seen at
/// one boundary (client, engine submit) to the model call that served it.
uint64_t QueryFingerprint(const duet::query::Query& query);

/// One traced model call.
struct CallSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t rows = 0;
  double encode_ns = 0.0;
  double forward_ns = 0.0;
  double post_ns = 0.0;
};

/// One query served inside a traced model call.
struct QuerySpan {
  uint64_t fingerprint = 0;
  int64_t call_start_ns = 0;
  int64_t call_end_ns = 0;
};

class TracedEstimator : public duet::query::CardinalityEstimator {
 public:
  explicit TracedEstimator(const duet::core::DuetModel& model);

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  double EstimateSelectivity(const duet::query::Query& query) override;
  std::vector<double> EstimateSelectivityBatch(
      const std::vector<duet::query::Query>& queries) override;
  uint64_t PackedWeightBytes() const override { return delegate_.PackedWeightBytes(); }
  std::string name() const override { return "traced-" + delegate_.name(); }

  /// Copies of the spans recorded so far.
  std::vector<CallSpan> calls() const;
  std::vector<QuerySpan> queries() const;
  void ClearSpans();
  /// Sampled split-vs-delegate comparisons run, and how many differed.
  uint64_t split_checks() const { return split_checks_.load(); }
  uint64_t split_mismatches() const { return split_mismatches_.load(); }

 private:
  /// encode -> forward -> masked post-processing, timed per stage.
  std::vector<double> SplitEstimate(const std::vector<duet::query::Query>& queries,
                                    CallSpan* span) const;

  const duet::core::DuetModel& model_;
  duet::core::DuetEstimator delegate_;
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> call_counter_{0};
  std::atomic<uint64_t> split_checks_{0};
  std::atomic<uint64_t> split_mismatches_{0};
  mutable std::mutex mu_;
  std::vector<CallSpan> calls_;
  std::vector<QuerySpan> queries_;
};

/// One traced plan search: its DP-level fetches.
struct PlanSpan {
  int fetches = 0;
  double fetch_us = 0.0;
};

class TracedProvider : public duet::optimizer::CardinalityProvider {
 public:
  explicit TracedProvider(duet::optimizer::CardinalityProvider& inner) : inner_(inner) {}

  std::unique_ptr<Session> StartPlan(const duet::optimizer::StarJoinQuery& star) override;
  std::string name() const override { return "traced-" + inner_.name(); }

  /// Durations of every EstimateSubsets call (microseconds).
  std::vector<double> fetch_us() const;
  /// Spans of the plan searches started so far.
  std::vector<PlanSpan> plans() const;
  void ClearSpans();

 private:
  class TracedSession;
  void RecordFetch(size_t plan_index, double micros);

  duet::optimizer::CardinalityProvider& inner_;
  mutable std::mutex mu_;
  std::vector<double> fetch_us_;
  std::vector<PlanSpan> plans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
