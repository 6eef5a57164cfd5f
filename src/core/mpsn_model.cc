#include "core/mpsn_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "tensor/ops.h"

namespace duet::core {

using tensor::Tensor;

namespace {
constexpr float kSelEps = 1e-12f;
/// Queries per batched inference forward; bounds peak activation memory.
constexpr size_t kMaxQueriesPerForward = 4096;
}  // namespace

DuetMpsnModel::DuetMpsnModel(const data::Table& table, DuetMpsnOptions options)
    : table_(table), options_(std::move(options)), encoder_(table, options_.base.encoding) {
  Rng rng(options_.base.seed);
  embedder_ = MakeMpsnEmbedder(options_.mpsn, encoder_, rng);
  nn::MadeOptions made_opt;
  made_opt.input_widths.assign(static_cast<size_t>(table.num_columns()),
                               options_.mpsn.embed_dim);
  made_opt.output_widths = table.ColumnNdvs();
  made_opt.hidden_sizes = options_.base.hidden_sizes;
  made_opt.residual = options_.base.residual;
  made_ = std::make_unique<nn::Made>(made_opt, rng);
  RegisterChild(*embedder_);
  RegisterChild(*made_);
}

MultiPredBatch DuetMpsnModel::EncodeQueries(const std::vector<query::Query>& queries) const {
  MultiPredBatch batch;
  batch.batch = static_cast<int64_t>(queries.size());
  batch.num_columns = table_.num_columns();
  batch.max_preds = options_.mpsn.max_preds;
  batch.codes.assign(
      static_cast<size_t>(batch.batch * batch.num_columns * batch.max_preds), -1);
  batch.ops.assign(static_cast<size_t>(batch.batch * batch.num_columns * batch.max_preds), -1);
  for (int64_t r = 0; r < batch.batch; ++r) {
    std::vector<int> used(static_cast<size_t>(batch.num_columns), 0);
    for (const query::Predicate& p : queries[static_cast<size_t>(r)].predicates) {
      const int slot = used[static_cast<size_t>(p.col)]++;
      DUET_CHECK_LT(slot, batch.max_preds)
          << "query exceeds MPSN max_preds on column " << p.col;
      const data::Column& col = table_.column(p.col);
      int32_t code = std::clamp(col.LowerBound(p.value), 0, col.ndv() - 1);
      const size_t idx = batch.SlotIndex(r, p.col, slot);
      batch.codes[idx] = code;
      batch.ops[idx] = static_cast<int8_t>(p.op);
    }
  }
  return batch;
}

Tensor DuetMpsnModel::DataLoss(const MultiPredBatch& batch) const {
  const Tensor emb = embedder_->Embed(batch, encoder_);
  const Tensor logits = made_->Forward(emb);
  return tensor::CrossEntropyBlocks(logits, made_->output_blocks(), batch.labels);
}

Tensor DuetMpsnModel::SelectivityBatch(const std::vector<query::Query>& queries) const {
  std::vector<std::vector<query::CodeRange>> all_ranges;
  all_ranges.reserve(queries.size());
  for (const query::Query& q : queries) all_ranges.push_back(q.PerColumnRanges(table_));
  return SelectivityBatchFromRanges(queries, all_ranges);
}

Tensor DuetMpsnModel::SelectivityBatchFromRanges(
    const std::vector<query::Query>& queries,
    const std::vector<std::vector<query::CodeRange>>& all_ranges) const {
  DUET_CHECK(!queries.empty());
  const MultiPredBatch batch = EncodeQueries(queries);
  const Tensor emb = embedder_->Embed(batch, encoder_);
  const Tensor logits = made_->Forward(emb);
  const Tensor probs = tensor::SoftmaxBlocks(logits, made_->output_blocks());
  const int64_t out_dim = made_->output_dim();
  Tensor mask = Tensor::Zeros({batch.batch, out_dim});
  const auto& blocks = made_->output_blocks();
  for (int64_t r = 0; r < batch.batch; ++r) {
    const auto& ranges = all_ranges[static_cast<size_t>(r)];
    float* row = mask.data() + r * out_dim;
    for (int c = 0; c < table_.num_columns(); ++c) {
      const query::CodeRange& cr = ranges[static_cast<size_t>(c)];
      float* block = row + blocks[static_cast<size_t>(c)].offset;
      for (int32_t j = cr.lo; j < cr.hi; ++j) block[j] = 1.0f;
    }
  }
  const Tensor factors = tensor::MaskedSumBlocks(probs, mask, blocks);
  const Tensor logf = tensor::Log(tensor::ClampMin(factors, kSelEps));
  return tensor::Exp(tensor::SumCols(logf));
}

double DuetMpsnModel::EstimateSelectivity(const query::Query& query) const {
  tensor::NoGradScope no_grad;
  const auto ranges = query.PerColumnRanges(table_);
  for (const query::CodeRange& r : ranges) {
    if (r.empty()) return 0.0;
  }
  const Tensor sel = SelectivityBatch({query});
  return static_cast<double>(sel.data()[0]);
}

std::vector<double> DuetMpsnModel::EstimateSelectivityBatch(
    const std::vector<query::Query>& queries) const {
  tensor::NoGradScope no_grad;
  if (queries.empty()) return {};
  std::vector<double> sels(queries.size());
  for (size_t begin = 0; begin < queries.size(); begin += kMaxQueriesPerForward) {
    const size_t end = std::min(queries.size(), begin + kMaxQueriesPerForward);
    const std::vector<query::Query> chunk(queries.begin() + static_cast<int64_t>(begin),
                                          queries.begin() + static_cast<int64_t>(end));
    std::vector<std::vector<query::CodeRange>> all_ranges;
    all_ranges.reserve(chunk.size());
    for (const query::Query& q : chunk) all_ranges.push_back(q.PerColumnRanges(table_));
    const Tensor sel = SelectivityBatchFromRanges(chunk, all_ranges);
    const float* sp = sel.data();
    for (size_t r = 0; r < chunk.size(); ++r) {
      // Contradictory queries short-circuit to exactly 0 on the scalar path
      // (before the forward pass); mirror that here.
      bool empty = false;
      for (const query::CodeRange& cr : all_ranges[r]) empty = empty || cr.empty();
      sels[begin + r] = empty ? 0.0 : static_cast<double>(sp[r]);
    }
  }
  return sels;
}

MpsnTrainer::MpsnTrainer(DuetMpsnModel& model, TrainOptions options)
    : model_(model),
      options_(options),
      sampler_(model.table(),
               SamplerOptions{options.expand, options.wildcard_prob,
                              options.parallel_sampler, /*op_weights=*/{},
                              /*value_weights=*/{}}),
      optimizer_(model.parameters(), options.learning_rate),
      rng_(options.seed) {}

EpochStats MpsnTrainer::TrainEpoch(int epoch_index) {
  const data::Table& table = model_.table();
  const int64_t rows = table.num_rows();
  const int64_t bs = std::min<int64_t>(options_.batch_size, rows);
  const bool hybrid = options_.train_workload != nullptr && options_.lambda > 0.0f;
  const int slots = model_.options().mpsn.max_preds;

  // Activation and gradient buffers recycle across this epoch's steps.
  tensor::TrainingScope step_buffers;
  Timer timer;
  std::vector<uint32_t> perm = rng_.Permutation(static_cast<uint32_t>(rows));
  EpochStats stats;
  stats.epoch = epoch_index;
  int64_t steps = 0, tuples = 0;

  for (int64_t begin = 0; begin + bs <= rows; begin += bs) {
    std::vector<int64_t> anchors(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      anchors[static_cast<size_t>(i)] = perm[static_cast<size_t>(begin + i)];
    }
    std::vector<VirtualBatch> draws;
    draws.reserve(static_cast<size_t>(slots));
    for (int s = 0; s < slots; ++s) draws.push_back(sampler_.Sample(anchors, rng_()));
    const MultiPredBatch mb = MultiPredBatch::FromVirtualBatches(draws);

    optimizer_.ZeroGrad();
    Tensor data_loss = model_.DataLoss(mb);
    Tensor loss = data_loss;
    double step_query_loss = 0.0;
    if (hybrid) {
      const query::Workload& wl = *options_.train_workload;
      const size_t take = std::min<size_t>(static_cast<size_t>(bs), wl.size());
      std::vector<query::Query> queries;
      std::vector<float> actual(take);
      for (size_t i = 0; i < take; ++i) {
        const query::LabeledQuery& lq = wl[(workload_cursor_ + i) % wl.size()];
        queries.push_back(lq.query);
        actual[i] = std::max<float>(1.0f, static_cast<float>(lq.cardinality));
      }
      workload_cursor_ = (workload_cursor_ + take) % wl.size();
      Tensor sel = model_.SelectivityBatch(queries);
      Tensor est =
          tensor::ClampMin(tensor::MulScalar(sel, static_cast<float>(rows)), 1.0f);
      Tensor act = Tensor::FromVector({static_cast<int64_t>(take)},
                                      std::vector<float>(actual.begin(), actual.end()));
      std::vector<float> cond(take);
      for (size_t i = 0; i < take; ++i) cond[i] = est.data()[i] > actual[i] ? 1.0f : 0.0f;
      Tensor qerr = tensor::Select(cond, tensor::Div(est, act), tensor::Div(act, est));
      Tensor lquery = tensor::MeanAll(
          tensor::MulScalar(tensor::Log(tensor::AddScalar(qerr, 1.0f)), 1.4426950409f));
      step_query_loss = static_cast<double>(lquery.item());
      loss = tensor::Add(data_loss, tensor::MulScalar(lquery, options_.lambda));
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

std::vector<EpochStats> MpsnTrainer::Train(
    const std::function<void(const EpochStats&)>& on_epoch) {
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  std::vector<EpochStats> history;
  for (int e = 0; e < options_.epochs; ++e) {
    history.push_back(TrainEpoch(e));
    if (on_epoch) on_epoch(history.back());
  }
  return history;
}

}  // namespace duet::core
