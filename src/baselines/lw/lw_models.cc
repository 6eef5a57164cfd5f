#include "baselines/lw/lw_models.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace duet::baselines {

using tensor::Tensor;

LwFeaturizer::LwFeaturizer(const data::Table& table)
    : table_(table), num_columns_(table.num_columns()) {}

void LwFeaturizer::Encode(const query::Query& query, float* dst) const {
  const std::vector<query::CodeRange> ranges = query.PerColumnRanges(table_);
  std::vector<bool> constrained(static_cast<size_t>(num_columns_), false);
  for (const query::Predicate& p : query.predicates) {
    constrained[static_cast<size_t>(p.col)] = true;
  }
  for (int64_t c = 0; c < num_columns_; ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    const float ndv = static_cast<float>(table_.column(static_cast<int>(c)).ndv());
    dst[3 * c + 0] = static_cast<float>(r.lo) / ndv;
    dst[3 * c + 1] = static_cast<float>(std::max(r.hi, r.lo)) / ndv;
    dst[3 * c + 2] = constrained[static_cast<size_t>(c)] ? 1.0f : 0.0f;
  }
}

ml::Matrix LwFeaturizer::EncodeWorkload(const std::vector<query::Query>& queries) const {
  ml::Matrix m;
  m.rows = static_cast<int64_t>(queries.size());
  m.cols = width();
  m.data.assign(static_cast<size_t>(m.rows * m.cols), 0.0f);
  for (int64_t r = 0; r < m.rows; ++r) {
    Encode(queries[static_cast<size_t>(r)], m.data.data() + r * m.cols);
  }
  return m;
}

float LwLogSelectivity(uint64_t cardinality, int64_t num_rows) {
  DUET_CHECK_GT(num_rows, 0);
  const double card = std::max<double>(1.0, static_cast<double>(cardinality));
  return static_cast<float>(std::log2(card / static_cast<double>(num_rows)));
}

// ---------------------------------------------------------------------------
// LW-XGB
// ---------------------------------------------------------------------------

LwXgbEstimator::LwXgbEstimator(const data::Table& table, LwXgbOptions options)
    : table_(table), featurizer_(table), gbdt_(options.gbdt) {}

void LwXgbEstimator::Train(const query::Workload& workload) {
  DUET_CHECK(!workload.empty());
  std::vector<query::Query> queries;
  std::vector<float> targets;
  queries.reserve(workload.size());
  targets.reserve(workload.size());
  for (const query::LabeledQuery& lq : workload) {
    queries.push_back(lq.query);
    targets.push_back(LwLogSelectivity(lq.cardinality, table_.num_rows()));
  }
  gbdt_.Fit(featurizer_.EncodeWorkload(queries), targets);
}

double LwXgbEstimator::EstimateSelectivity(const query::Query& query) {
  DUET_CHECK_GT(gbdt_.num_trees(), 0) << "LW-XGB used before Train()";
  std::vector<float> row(static_cast<size_t>(featurizer_.width()));
  featurizer_.Encode(query, row.data());
  const double log_sel = static_cast<double>(gbdt_.Predict(row.data()));
  return std::clamp(std::exp2(log_sel), 0.0, 1.0);
}

// ---------------------------------------------------------------------------
// LW-NN
// ---------------------------------------------------------------------------

LwNnEstimator::LwNnEstimator(const data::Table& table, LwNnOptions options)
    : table_(table), featurizer_(table), options_(options) {
  Rng rng(options_.seed);
  std::vector<int64_t> sizes;
  sizes.push_back(featurizer_.width());
  for (int64_t h : options_.hidden_sizes) sizes.push_back(h);
  sizes.push_back(1);
  mlp_ = std::make_unique<nn::Mlp>(sizes, rng);
  RegisterChild(*mlp_);
}

std::vector<double> LwNnEstimator::Train(const query::Workload& workload) {
  DUET_CHECK(!workload.empty());
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  const int64_t n = static_cast<int64_t>(workload.size());
  const int64_t width = featurizer_.width();
  std::vector<float> features(static_cast<size_t>(n * width));
  std::vector<float> targets(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    featurizer_.Encode(workload[static_cast<size_t>(i)].query,
                       features.data() + i * width);
    targets[static_cast<size_t>(i)] =
        LwLogSelectivity(workload[static_cast<size_t>(i)].cardinality, table_.num_rows());
  }

  tensor::Adam opt(parameters(), options_.learning_rate);
  Rng rng(options_.seed + 1);
  std::vector<double> epoch_mse;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(n));
    double se = 0.0;
    int64_t seen = 0;
    for (int64_t start = 0; start < n; start += options_.batch_size) {
      const int64_t bs = std::min(options_.batch_size, n - start);
      Tensor x = Tensor::Zeros({bs, width});
      Tensor y = Tensor::Zeros({bs, 1});
      for (int64_t b = 0; b < bs; ++b) {
        const uint32_t src = perm[static_cast<size_t>(start + b)];
        std::copy_n(features.data() + static_cast<int64_t>(src) * width, width,
                    x.data() + b * width);
        y.data()[b] = targets[src];
      }
      opt.ZeroGrad();
      const Tensor diff = tensor::Sub(mlp_->Forward(x), y);
      Tensor loss = tensor::MeanAll(tensor::Mul(diff, diff));
      loss.Backward();
      opt.Step();
      se += static_cast<double>(loss.item()) * static_cast<double>(bs);
      seen += bs;
    }
    epoch_mse.push_back(se / static_cast<double>(seen));
  }
  return epoch_mse;
}

double LwNnEstimator::EstimateSelectivity(const query::Query& query) {
  tensor::NoGradGuard no_grad;
  Tensor x = Tensor::Zeros({1, featurizer_.width()});
  featurizer_.Encode(query, x.data());
  const double log_sel = static_cast<double>(mlp_->Forward(x).item());
  return std::clamp(std::exp2(log_sel), 0.0, 1.0);
}

}  // namespace duet::baselines
