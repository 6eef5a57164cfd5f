#include "baselines/mscn/mscn_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace duet::baselines {

using tensor::Tensor;

MscnModel::MscnModel(const data::Table& table, MscnOptions options)
    : table_(table), options_(std::move(options)) {
  Rng rng(options_.seed);
  const int64_t rows = table.num_rows();
  const int64_t take = std::min<int64_t>(options_.bitmap_size, rows);
  options_.bitmap_size = take;
  std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(rows));
  sample_rows_.reserve(static_cast<size_t>(take));
  for (int64_t i = 0; i < take; ++i) sample_rows_.push_back(perm[static_cast<size_t>(i)]);

  const int64_t f = table.num_columns() + query::kNumPredOps + 1;
  pred_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{f, options_.hidden, options_.hidden}, rng);
  bitmap_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{take, options_.hidden}, rng);
  out_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{2 * options_.hidden, options_.hidden, 1}, rng);
  RegisterChild(*pred_mlp_);
  RegisterChild(*bitmap_mlp_);
  RegisterChild(*out_mlp_);
  log_min_ = std::log(1.0 / static_cast<double>(rows));
}

MscnModel::Features MscnModel::Featurize(const std::vector<query::Query>& queries) const {
  const int64_t b = static_cast<int64_t>(queries.size());
  const int64_t s = options_.max_preds;
  const int n = table_.num_columns();
  const int64_t f = n + query::kNumPredOps + 1;
  Features out;
  out.pred_feats = Tensor::Zeros({b * s, f});
  out.presence.assign(static_cast<size_t>(b * s), 0.0f);
  out.bitmaps = Tensor::Zeros({b, options_.bitmap_size});
  for (int64_t q = 0; q < b; ++q) {
    const query::Query& query = queries[static_cast<size_t>(q)];
    DUET_CHECK_LE(static_cast<int64_t>(query.predicates.size()), s)
        << "query exceeds MSCN max_preds";
    for (size_t p = 0; p < query.predicates.size(); ++p) {
      const query::Predicate& pred = query.predicates[p];
      float* row = out.pred_feats.data() + (q * s + static_cast<int64_t>(p)) * f;
      row[pred.col] = 1.0f;
      row[n + static_cast<int32_t>(pred.op)] = 1.0f;
      const data::Column& col = table_.column(pred.col);
      const int32_t code = std::clamp(col.LowerBound(pred.value), 0, col.ndv() - 1);
      row[n + query::kNumPredOps] =
          col.ndv() > 1 ? static_cast<float>(code) / static_cast<float>(col.ndv() - 1) : 0.0f;
      out.presence[static_cast<size_t>(q * s + static_cast<int64_t>(p))] = 1.0f;
    }
    // Materialized-sample bitmap.
    const auto ranges = query.PerColumnRanges(table_);
    float* bits = out.bitmaps.data() + q * options_.bitmap_size;
    for (int64_t i = 0; i < options_.bitmap_size; ++i) {
      const int64_t row_idx = sample_rows_[static_cast<size_t>(i)];
      bool ok = true;
      for (const query::Predicate& pred : query.predicates) {
        const query::CodeRange& r = ranges[static_cast<size_t>(pred.col)];
        const int32_t code = table_.code(row_idx, pred.col);
        if (code < r.lo || code >= r.hi) {
          ok = false;
          break;
        }
      }
      bits[i] = ok ? 1.0f : 0.0f;
    }
  }
  return out;
}

Tensor MscnModel::ForwardNormalized(const Features& f, int64_t batch) const {
  using namespace tensor;  // NOLINT
  Tensor pred_emb = Relu(pred_mlp_->Forward(f.pred_feats));
  Tensor pooled = MeanPoolSegments(pred_emb, f.presence, batch, options_.max_preds);
  Tensor bitmap_emb = Relu(bitmap_mlp_->Forward(f.bitmaps));
  Tensor joint = ConcatCols({pooled, bitmap_emb});
  Tensor y = Sigmoid(out_mlp_->Forward(joint));  // [B, 1]
  return Reshape(y, {batch});
}

std::vector<double> MscnModel::Train(const query::Workload& workload) {
  DUET_CHECK(!workload.empty());
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  tensor::Adam opt(parameters(), options_.learning_rate);
  Rng rng(options_.seed ^ 0x5eedULL);
  const int64_t rows = table_.num_rows();
  std::vector<double> history;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(workload.size()));
    double epoch_loss = 0.0;
    int64_t steps = 0;
    for (size_t begin = 0; begin + options_.batch_size <= perm.size() || begin == 0;
         begin += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(perm.size(), begin + static_cast<size_t>(options_.batch_size));
      if (begin >= end) break;
      std::vector<query::Query> queries;
      std::vector<float> targets;
      for (size_t i = begin; i < end; ++i) {
        const query::LabeledQuery& lq = workload[perm[i]];
        query::Query q = lq.query;
        if (options_.mask_prob > 0.0 && q.predicates.size() > 1) {
          // RobustMSCN query masking: drop predicates from the featurization
          // (never all of them) while keeping the full query's label.
          std::vector<query::Predicate> kept;
          for (const query::Predicate& p : q.predicates) {
            if (!rng.Bernoulli(options_.mask_prob)) kept.push_back(p);
          }
          if (!kept.empty()) q.predicates = std::move(kept);
        }
        queries.push_back(std::move(q));
        const double sel =
            std::max<double>(1.0, static_cast<double>(lq.cardinality)) / static_cast<double>(rows);
        targets.push_back(static_cast<float>(1.0 - std::log(sel) / log_min_));
      }
      const Features f = Featurize(queries);
      opt.ZeroGrad();
      Tensor y = ForwardNormalized(f, static_cast<int64_t>(queries.size()));
      Tensor t = Tensor::FromVector({static_cast<int64_t>(targets.size())}, targets);
      Tensor diff = tensor::Sub(y, t);
      Tensor loss = tensor::MeanAll(tensor::Mul(diff, diff));
      loss.Backward();
      opt.Step();
      epoch_loss += static_cast<double>(loss.item());
      ++steps;
      if (end == perm.size()) break;
    }
    history.push_back(steps > 0 ? epoch_loss / static_cast<double>(steps) : 0.0);
  }
  return history;
}

double MscnModel::EstimateSelectivity(const query::Query& query) {
  tensor::NoGradGuard no_grad;
  const Features f = Featurize({query});
  const Tensor y = ForwardNormalized(f, 1);
  const double norm = static_cast<double>(y.data()[0]);
  return std::exp((norm - 1.0) * -log_min_ + 0.0);
}

}  // namespace duet::baselines
