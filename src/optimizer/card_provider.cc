#include "optimizer/card_provider.h"

#include <cmath>
#include <map>
#include <utility>

#include "common/logging.h"
#include "net/client.h"

namespace duet::optimizer {

// ---------------------------------------------------------------------------
// JoinKeyStats
// ---------------------------------------------------------------------------

JoinKeyStats::JoinKeyStats(const std::vector<const data::Table*>& tables, int join_col) {
  DUET_CHECK(!tables.empty());
  DUET_CHECK_LE(tables.size(), 16u);  // matches the planner's subset-DP bound
  // Unify key values across tables (value equality, not code equality —
  // dictionaries need not align). std::map keeps the value order
  // deterministic, so sums below are bitwise-reproducible.
  std::map<double, size_t> value_index;
  for (const data::Table* t : tables) {
    DUET_CHECK(t != nullptr);
    DUET_CHECK_GE(join_col, 0);
    DUET_CHECK_LT(join_col, t->num_columns());
    for (double v : t->column(join_col).distinct()) value_index.emplace(v, 0);
  }
  size_t next = 0;
  for (auto& [value, index] : value_index) {
    (void)value;
    index = next++;
  }
  rows_.resize(tables.size(), 0.0);
  counts_.assign(tables.size(), std::vector<double>(value_index.size(), 0.0));
  for (size_t t = 0; t < tables.size(); ++t) {
    const data::Table& table = *tables[t];
    const data::Column& key = table.column(join_col);
    rows_[t] = static_cast<double>(table.num_rows());
    std::vector<double>& counts = counts_[t];
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      counts[value_index.at(key.Value(key.code(r)))] += 1.0;
    }
  }
}

double JoinKeyStats::UnfilteredJoinSize(uint32_t subset) const {
  DUET_CHECK_NE(subset, 0u);
  DUET_CHECK_LT(subset, 1u << num_tables());
  if ((subset & (subset - 1)) == 0) {
    return rows_[static_cast<size_t>(__builtin_ctz(subset))];
  }
  const size_t num_values = counts_.front().size();
  const int k = num_tables();
  double total = 0.0;
  for (size_t v = 0; v < num_values; ++v) {
    double prod = 1.0;
    for (int t = 0; t < k; ++t) {
      if (subset & (1u << t)) prod *= counts_[static_cast<size_t>(t)][v];
    }
    total += prod;
  }
  return total;
}

// ---------------------------------------------------------------------------
// ComposedCardinalityProvider
// ---------------------------------------------------------------------------

/// Per-plan-search state: the selectivity memo (each table's filter is
/// fixed within one star query, so with memoization on, one fetch per table
/// serves every DP level).
class ComposedCardinalityProvider::ComposedSession : public CardinalityProvider::Session {
 public:
  ComposedSession(ComposedCardinalityProvider& provider, const StarJoinQuery& star)
      : provider_(provider),
        star_(star),
        memo_(star.tables.size()) {}

  std::vector<SubsetEstimate> EstimateSubsets(
      const std::vector<uint32_t>& subsets) override {
    const bool memoize = provider_.options_.memoize;
    // Collect this level's selectivity needs FIRST, so the fetch is one
    // burst: memoized, each table at most once per search; unmemoized, one
    // request per (subset, member table) — the raw optimizer fan-out whose
    // same-key bursts the serving engine fuses.
    std::vector<int> fetch;
    for (uint32_t s : subsets) {
      for (int t = 0; t < static_cast<int>(star_.tables.size()); ++t) {
        if (!(s & (1u << t))) continue;
        if (memoize) {
          if (!memo_[static_cast<size_t>(t)].has_value() && !queued_[t]) {
            queued_[t] = true;
            fetch.push_back(t);
          }
        } else {
          fetch.push_back(t);
        }
      }
    }
    std::vector<serve::Estimate> fetched;
    if (!fetch.empty()) fetched = provider_.FetchSelectivities(star_, fetch);
    DUET_CHECK_EQ(fetched.size(), fetch.size());
    if (memoize) {
      for (size_t i = 0; i < fetch.size(); ++i) {
        memo_[static_cast<size_t>(fetch[i])] = fetched[i];
        queued_.erase(fetch[i]);
      }
    }

    // Compose: card(S) = (prod of member selectivities) * exact unfiltered
    // join factor. Members multiply in ascending table order so the result
    // is bitwise-deterministic.
    std::vector<SubsetEstimate> out;
    out.reserve(subsets.size());
    size_t cursor = 0;
    for (uint32_t s : subsets) {
      SubsetEstimate est;
      double sel_prod = 1.0;
      for (int t = 0; t < static_cast<int>(star_.tables.size()); ++t) {
        if (!(s & (1u << t))) continue;
        const serve::Estimate& e =
            memoize ? *memo_[static_cast<size_t>(t)] : fetched[cursor++];
        sel_prod *= query::CardinalityEstimator::ClampSelectivity(e.selectivity);
        est.degraded |= e.degraded();
      }
      est.cardinality = sel_prod * provider_.stats_.UnfilteredJoinSize(s);
      out.push_back(est);
    }
    return out;
  }

 private:
  ComposedCardinalityProvider& provider_;
  const StarJoinQuery& star_;
  std::vector<std::optional<serve::Estimate>> memo_;
  std::map<int, bool> queued_;  // tables already in this level's fetch list
};

std::unique_ptr<CardinalityProvider::Session> ComposedCardinalityProvider::StartPlan(
    const StarJoinQuery& star) {
  DUET_CHECK_EQ(static_cast<int>(star.tables.size()), stats_.num_tables())
      << "star query does not match the tables this provider was built over";
  DUET_CHECK_EQ(star.filters.size(), star.tables.size());
  return std::make_unique<ComposedSession>(*this, star);
}

// ---------------------------------------------------------------------------
// ServingCardinalityProvider
// ---------------------------------------------------------------------------

ServingCardinalityProvider::ServingCardinalityProvider(serve::ServingEngine& engine,
                                                       std::vector<std::string> model_keys,
                                                       JoinKeyStats stats,
                                                       ComposedProviderOptions options)
    : ComposedCardinalityProvider(std::move(stats), options),
      engine_(engine),
      model_keys_(std::move(model_keys)),
      sequential_(options.sequential),
      deadline_us_(options.deadline_us) {
  DUET_CHECK(engine_.keyed()) << "the serving provider needs a zoo-mode engine";
  DUET_CHECK_EQ(static_cast<int>(model_keys_.size()), this->stats().num_tables())
      << "zoo-mode serving needs one model key per star table";
}

std::vector<serve::Estimate> ServingCardinalityProvider::FetchSelectivities(
    const StarJoinQuery& star, const std::vector<int>& tables) {
  std::vector<serve::Estimate> out(tables.size());
  if (sequential_) {
    // The A/B arm: the same async serving path, but one request in flight
    // at a time — each waits out batch formation alone, nothing coalesces.
    for (size_t i = 0; i < tables.size(); ++i) {
      const size_t t = static_cast<size_t>(tables[i]);
      out[i] = engine_.Submit(model_keys_[t], star.filters[t], deadline_us_).Result();
    }
    return out;
  }
  // Submit the whole burst before waiting on anything: concurrent same-key
  // requests land in the micro-batcher together and fuse into one GEMM —
  // the DP-level batching contract.
  std::vector<serve::ServingEngine::Future> futures(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    const size_t t = static_cast<size_t>(tables[i]);
    futures[i] = engine_.Submit(model_keys_[t], star.filters[t], deadline_us_);
  }
  for (size_t i = 0; i < tables.size(); ++i) out[i] = futures[i].Result();
  return out;
}

// ---------------------------------------------------------------------------
// RemoteCardinalityProvider
// ---------------------------------------------------------------------------

RemoteCardinalityProvider::RemoteCardinalityProvider(net::RpcClient& client,
                                                     std::vector<std::string> model_keys,
                                                     JoinKeyStats stats,
                                                     ComposedProviderOptions options)
    : ComposedCardinalityProvider(std::move(stats), options),
      client_(client),
      model_keys_(std::move(model_keys)),
      deadline_us_(static_cast<uint64_t>(options.deadline_us)) {
  DUET_CHECK_EQ(static_cast<int>(model_keys_.size()), this->stats().num_tables())
      << "remote planning needs one model key per star table";
}

std::vector<serve::Estimate> RemoteCardinalityProvider::FetchSelectivities(
    const StarJoinQuery& star, const std::vector<int>& tables) {
  std::vector<serve::Estimate> out(tables.size());
  // Group by table so each key is ONE wire frame carrying all of this
  // level's requests for it — wire-level batching the server's
  // micro-batcher then fuses.
  std::map<int, std::vector<size_t>> by_table;
  for (size_t i = 0; i < tables.size(); ++i) by_table[tables[i]].push_back(i);
  for (const auto& [t, indices] : by_table) {
    const std::vector<query::Query> queries(indices.size(),
                                            star.filters[static_cast<size_t>(t)]);
    std::vector<serve::Estimate> resp;
    const net::WireStatus status = client_.EstimateBatch(
        model_keys_[static_cast<size_t>(t)], queries, deadline_us_, &resp);
    if (!status.ok || resp.size() != queries.size()) {
      // A dead connection or server error frame degrades the plan search
      // exactly like a shed request: flagged zero, never a throw.
      for (size_t i : indices) {
        out[i].selectivity = 0.0;
        out[i].fallback = true;
      }
      continue;
    }
    for (size_t j = 0; j < indices.size(); ++j) out[indices[j]] = resp[j];
  }
  return out;
}

// ---------------------------------------------------------------------------
// EstimatorCardinalityProvider
// ---------------------------------------------------------------------------

EstimatorCardinalityProvider::EstimatorCardinalityProvider(
    std::vector<query::CardinalityEstimator*> estimators, JoinKeyStats stats,
    ComposedProviderOptions options, std::string name)
    : ComposedCardinalityProvider(std::move(stats), options),
      estimators_(std::move(estimators)),
      name_(std::move(name)) {
  DUET_CHECK_EQ(static_cast<int>(estimators_.size()), this->stats().num_tables());
  for (query::CardinalityEstimator* e : estimators_) DUET_CHECK(e != nullptr);
}

std::vector<serve::Estimate> EstimatorCardinalityProvider::FetchSelectivities(
    const StarJoinQuery& star, const std::vector<int>& tables) {
  std::vector<serve::Estimate> out(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    const int t = tables[i];
    out[i].selectivity = estimators_[static_cast<size_t>(t)]->EstimateSelectivity(
        star.filters[static_cast<size_t>(t)]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExactCardinalityProvider
// ---------------------------------------------------------------------------

class ExactCardinalityProvider::ExactSession : public CardinalityProvider::Session {
 public:
  explicit ExactSession(const StarJoinPlanner& exact) : exact_(exact) {}

  std::vector<SubsetEstimate> EstimateSubsets(
      const std::vector<uint32_t>& subsets) override {
    std::vector<SubsetEstimate> out;
    out.reserve(subsets.size());
    for (uint32_t s : subsets) out.push_back({exact_.ExactSubsetCard(s), false});
    return out;
  }

 private:
  const StarJoinPlanner& exact_;
};

std::unique_ptr<CardinalityProvider::Session> ExactCardinalityProvider::StartPlan(
    const StarJoinQuery& star) {
  DUET_CHECK_EQ(static_cast<int>(star.tables.size()), exact_.num_tables());
  for (size_t t = 0; t < star.tables.size(); ++t) {
    DUET_CHECK(star.tables[t] == exact_.query().tables[t])
        << "oracle provider is bound to a different star query";
  }
  return std::make_unique<ExactSession>(exact_);
}

}  // namespace duet::optimizer
