#include "baselines/uae/uae_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "tensor/ops.h"

namespace duet::baselines {

using tensor::Tensor;

namespace {
constexpr float kEps = 1e-12f;
}  // namespace

UaeModel::UaeModel(const data::Table& table, UaeOptions options) : options_(std::move(options)) {
  naru_ = std::make_unique<NaruModel>(table, options_.naru);
}

double UaeModel::EstimatedTrainMemoryMB(int64_t query_batch) const {
  const auto& made = naru_->made();
  int64_t per_row = made.input_dim() + 2 * made.output_dim();
  for (int64_t h : options_.naru.hidden_sizes) per_row += 2 * h;
  const int64_t rows = query_batch * options_.train_samples;
  const int64_t steps = table().num_columns();  // one retained pass per column
  return static_cast<double>(rows) * static_cast<double>(per_row) *
         static_cast<double>(steps) * 4.0 / (1024.0 * 1024.0);
}

Tensor UaeModel::SelectivityBatchDifferentiable(const std::vector<query::Query>& queries,
                                                Rng& rng) const {
  DUET_CHECK(!queries.empty());
  const data::Table& table = naru_->table();
  const int n = table.num_columns();
  const int64_t qbs = static_cast<int64_t>(queries.size());
  const int64_t s = options_.train_samples;
  const int64_t rows = qbs * s;
  const auto& enc = naru_->encoder();

  // Per-query per-column ranges; column is active if any query constrains it.
  std::vector<std::vector<query::CodeRange>> ranges(static_cast<size_t>(qbs));
  std::vector<bool> active(static_cast<size_t>(n), false);
  for (int64_t q = 0; q < qbs; ++q) {
    ranges[static_cast<size_t>(q)] = queries[static_cast<size_t>(q)].PerColumnRanges(table);
    for (int c = 0; c < n; ++c) {
      const query::CodeRange& r = ranges[static_cast<size_t>(q)][static_cast<size_t>(c)];
      if (!(r.lo == 0 && r.hi == table.column(c).ndv())) active[static_cast<size_t>(c)] = true;
    }
  }

  // Input blocks, updated column by column with soft one-hot samples.
  std::vector<Tensor> blocks_in(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    blocks_in[static_cast<size_t>(c)] = Tensor::Zeros({rows, enc.block_width(c)});
  }

  Tensor log_p = Tensor::Zeros({rows});
  const auto& out_blocks = naru_->made().output_blocks();

  for (int c = 0; c < n; ++c) {
    if (!active[static_cast<size_t>(c)]) continue;  // wildcard for all queries
    const int32_t ndv = table.column(c).ndv();

    // Constant mask [rows, ndv]: each query's range replicated over its
    // sample paths; unconstrained queries get an all-ones row.
    Tensor mask = Tensor::Zeros({rows, static_cast<int64_t>(ndv)});
    for (int64_t q = 0; q < qbs; ++q) {
      const query::CodeRange& r = ranges[static_cast<size_t>(q)][static_cast<size_t>(c)];
      for (int64_t k = 0; k < s; ++k) {
        float* row = mask.data() + (q * s + k) * ndv;
        for (int32_t j = r.lo; j < r.hi; ++j) row[j] = 1.0f;
      }
    }

    const Tensor x = tensor::ConcatCols(blocks_in);
    const Tensor logits = naru_->ForwardLogits(x);
    const tensor::BlockSpec& blk = out_blocks[static_cast<size_t>(c)];
    const Tensor probs = tensor::Softmax(tensor::SliceCols(logits, blk.offset, blk.len));
    const Tensor masked = tensor::Mul(probs, mask);
    const Tensor factor = tensor::SumCols(masked);  // [rows]
    log_p = tensor::Add(log_p, tensor::Log(tensor::ClampMin(factor, kEps)));

    // Gumbel-Softmax soft sample from the masked, renormalized distribution.
    Tensor gumbel = Tensor::Zeros({rows, static_cast<int64_t>(ndv)});
    for (int64_t i = 0; i < gumbel.numel(); ++i) {
      const double u = std::max(rng.UniformDouble(), 1e-12);
      gumbel.data()[i] = static_cast<float>(-std::log(-std::log(u)));
    }
    const Tensor soft = tensor::Softmax(tensor::MulScalar(
        tensor::Add(tensor::Log(tensor::ClampMin(masked, kEps)), gumbel),
        1.0f / options_.gumbel_tau));
    // Soft one-hot -> differentiable input encoding for this column.
    blocks_in[static_cast<size_t>(c)] = tensor::MatMul(soft, enc.BlockCodeMatrix(c));
  }

  // Mean over the s paths of each query.
  const Tensor p = tensor::Exp(log_p);
  const Tensor p2 = tensor::Reshape(p, {rows, 1});
  const std::vector<float> ones(static_cast<size_t>(rows), 1.0f);
  const Tensor pooled = tensor::MeanPoolSegments(p2, ones, qbs, s);  // [qbs, 1]
  return tensor::Reshape(pooled, {qbs});
}

UaeTrainer::UaeTrainer(UaeModel& model, core::TrainOptions options)
    : model_(model),
      options_(options),
      optimizer_(model.naru().parameters(), options.learning_rate),
      rng_(options.seed) {}

core::EpochStats UaeTrainer::TrainEpoch(int epoch_index) {
  const data::Table& table = model_.table();
  const int64_t rows = table.num_rows();
  const int64_t bs = std::min<int64_t>(options_.batch_size, rows);
  const bool hybrid = options_.train_workload != nullptr;
  // Activation and gradient buffers recycle across this epoch's steps.
  tensor::TrainingScope step_buffers;

  core::EpochStats stats;
  stats.epoch = epoch_index;
  if (hybrid) {
    const double need = model_.EstimatedTrainMemoryMB(bs);
    if (need > model_.options().memory_budget_mb) {
      // Paper Table III: UAE OOMs on Kddcup98 at its settings. We model the
      // retained-activation requirement instead of thrashing the host.
      oom_ = true;
      return stats;
    }
  }

  Timer timer;
  std::vector<uint32_t> perm = rng_.Permutation(static_cast<uint32_t>(rows));
  int64_t steps = 0, tuples = 0;
  for (int64_t begin = 0; begin + bs <= rows; begin += bs) {
    std::vector<int64_t> anchors(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      anchors[static_cast<size_t>(i)] = perm[static_cast<size_t>(begin + i)];
    }
    optimizer_.ZeroGrad();
    Tensor data_loss = model_.naru().DataLoss(anchors, rng_());
    Tensor loss = data_loss;
    double step_query_loss = 0.0;
    if (hybrid) {
      const query::Workload& wl = *options_.train_workload;
      // UAE's effective query batch is bounded by memory; keep it small and
      // proportional to the data batch.
      const size_t take = std::min<size_t>(wl.size(), static_cast<size_t>(std::max<int64_t>(
                                                          1, bs / 8)));
      std::vector<query::Query> queries;
      std::vector<float> actual(take);
      for (size_t i = 0; i < take; ++i) {
        const query::LabeledQuery& lq = wl[(workload_cursor_ + i) % wl.size()];
        queries.push_back(lq.query);
        actual[i] = std::max<float>(1.0f, static_cast<float>(lq.cardinality));
      }
      workload_cursor_ = (workload_cursor_ + take) % wl.size();
      Tensor sel = model_.SelectivityBatchDifferentiable(queries, rng_);
      Tensor est = tensor::ClampMin(
          tensor::MulScalar(sel, static_cast<float>(table.num_rows())), 1.0f);
      Tensor act = Tensor::FromVector({static_cast<int64_t>(take)},
                                      std::vector<float>(actual.begin(), actual.end()));
      std::vector<float> cond(take);
      for (size_t i = 0; i < take; ++i) cond[i] = est.data()[i] > actual[i] ? 1.0f : 0.0f;
      Tensor qerr = tensor::Select(cond, tensor::Div(est, act), tensor::Div(act, est));
      // UAE: single-factor scaling of the raw Q-error (no log mapping).
      Tensor lquery = tensor::MeanAll(qerr);
      step_query_loss = static_cast<double>(lquery.item());
      loss = tensor::Add(data_loss,
                         tensor::MulScalar(lquery, model_.options().query_weight));
    }
    loss.Backward();
    optimizer_.Step();
    stats.data_loss += static_cast<double>(data_loss.item());
    stats.query_loss += step_query_loss;
    ++steps;
    tuples += bs;
  }
  if (steps > 0) {
    stats.data_loss /= static_cast<double>(steps);
    stats.query_loss /= static_cast<double>(steps);
  }
  stats.seconds = timer.Seconds();
  stats.tuples_per_second =
      stats.seconds > 0.0 ? static_cast<double>(tuples) / stats.seconds : 0.0;
  return stats;
}

std::vector<core::EpochStats> UaeTrainer::Train(
    const std::function<void(const core::EpochStats&)>& on_epoch) {
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  std::vector<core::EpochStats> history;
  for (int e = 0; e < options_.epochs; ++e) {
    history.push_back(TrainEpoch(e));
    if (oom_) break;
    if (on_epoch) on_epoch(history.back());
  }
  return history;
}

}  // namespace duet::baselines
