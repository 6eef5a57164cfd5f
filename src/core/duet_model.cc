#include "core/duet_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace duet::core {

using tensor::Tensor;

namespace {
/// Selectivity factors are floored at this value before the log-space
/// product so hybrid-training gradients stay finite.
constexpr float kSelEps = 1e-12f;

/// Queries per batched forward pass; bounds peak activation memory when a
/// caller (e.g. EvaluateQErrors) hands over a whole workload. Chunking never
/// changes results — rows are batch-size independent.
constexpr int64_t kMaxQueriesPerForward = 4096;

}  // namespace

// Algorithm 3 tail for one query row; see the declaration in duet_model.h
// for the contract (exported so artifact-loaded models reuse the exact
// same loop and stay bitwise-equal to the in-memory estimator).
bool MaskedLogSelectivity(const float* logits_row, const std::vector<tensor::BlockSpec>& blocks,
                          const std::vector<query::CodeRange>& ranges, int num_columns,
                          double* log_sel_out) {
  double log_sel = 0.0;
  for (int c = 0; c < num_columns; ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    if (r.empty()) return false;
    const tensor::BlockSpec& blk = blocks[static_cast<size_t>(c)];
    if (r.lo == 0 && r.hi == static_cast<int32_t>(blk.len)) continue;  // wildcard: factor 1
    const float* ls = logits_row + blk.offset;
    float mx = ls[0];
    for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, ls[j]);
    double denom = 0.0, num = 0.0;
    for (int64_t j = 0; j < blk.len; ++j) {
      const double e = std::exp(static_cast<double>(ls[j] - mx));
      denom += e;
      if (j >= r.lo && j < r.hi) num += e;
    }
    log_sel += std::log(std::max(num / denom, static_cast<double>(kSelEps)));
  }
  *log_sel_out = log_sel;
  return true;
}

DuetModel::DuetModel(const data::Table& table, DuetModelOptions options)
    : table_(table), options_(std::move(options)), encoder_(table, options_.encoding) {
  Rng rng(options_.seed);
  if (options_.backbone == DuetBackbone::kTransformer) {
    nn::TransformerOptions t_opt;
    t_opt.input_widths = encoder_.BlockWidths();
    t_opt.output_widths = table.ColumnNdvs();
    t_opt.config = options_.transformer;
    net_ = std::make_unique<nn::BlockTransformer>(std::move(t_opt), rng);
  } else {
    nn::MadeOptions made_opt;
    made_opt.input_widths = encoder_.BlockWidths();
    made_opt.output_widths = table.ColumnNdvs();
    made_opt.hidden_sizes = options_.hidden_sizes;
    made_opt.residual = options_.residual;
    net_ = std::make_unique<nn::Made>(made_opt, rng);
  }
  RegisterChild(*net_);
}

Tensor DuetModel::EncodeVirtualBatch(const VirtualBatch& batch) const {
  DUET_CHECK_EQ(batch.num_columns, table_.num_columns());
  const int64_t b = batch.batch;
  const int64_t d = encoder_.total_width();
  Tensor x = Tensor::Zeros({b, d});
  float* xp = x.data();
  for (int64_t r = 0; r < b; ++r) {
    float* row = xp + r * d;
    for (int c = 0; c < batch.num_columns; ++c) {
      const int8_t op = batch.op_at(r, c);
      if (op < 0) continue;  // wildcard block stays zero
      encoder_.EncodePredicate(c, static_cast<query::PredOp>(op), batch.code_at(r, c),
                               row + encoder_.block_offset(c));
    }
  }
  return x;
}

Tensor DuetModel::ForwardLogits(const Tensor& x) const { return net_->Forward(x); }

Tensor DuetModel::DataLoss(const VirtualBatch& batch) const {
  const Tensor x = EncodeVirtualBatch(batch);
  const Tensor logits = ForwardLogits(x);
  return tensor::CrossEntropyBlocks(logits, net_->output_blocks(), batch.labels);
}


void DuetModel::FillMaskRow(const std::vector<query::CodeRange>& ranges, float* dst) const {
  const auto& blocks = net_->output_blocks();
  for (int c = 0; c < table_.num_columns(); ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    float* block = dst + blocks[static_cast<size_t>(c)].offset;
    for (int32_t j = r.lo; j < r.hi; ++j) block[j] = 1.0f;
  }
}

Tensor DuetModel::SelectivityBatch(const std::vector<query::Query>& queries) const {
  DUET_CHECK(!queries.empty());
  const int64_t b = static_cast<int64_t>(queries.size());
  const int64_t d = encoder_.total_width();
  const int64_t out_dim = net_->output_dim();
  Tensor x = Tensor::Zeros({b, d});
  Tensor mask = Tensor::Zeros({b, out_dim});
  encoder_.EncodeQueryBatch(table_, queries, x.data());
  for (int64_t r = 0; r < b; ++r) {
    const query::Query& q = queries[static_cast<size_t>(r)];
    FillMaskRow(q.PerColumnRanges(table_), mask.data() + r * out_dim);
  }
  const Tensor logits = ForwardLogits(x);
  const Tensor probs = tensor::SoftmaxBlocks(logits, net_->output_blocks());
  const Tensor factors = tensor::MaskedSumBlocks(probs, mask, net_->output_blocks());
  // Product over columns in log space (numerically safe for 100 columns).
  const Tensor logf = tensor::Log(tensor::ClampMin(factors, kSelEps));
  return tensor::Exp(tensor::SumCols(logf));
}

double DuetModel::EstimateSelectivity(const query::Query& query) const {
  tensor::NoGradScope no_grad;
  Timer timer;

  // Phase 1: encode.
  const int64_t d = encoder_.total_width();
  Tensor x = Tensor::Zeros({1, d});
  encoder_.EncodeQueryRow(table_, query, x.data());
  const std::vector<query::CodeRange> ranges = query.PerColumnRanges(table_);
  for (const query::CodeRange& r : ranges) {
    if (r.empty()) return 0.0;  // contradictory predicates select nothing
  }
  AddPhaseTime(&PhaseTimes::encode_ms, timer.Millis());

  // Phase 2: one forward pass.
  timer.Reset();
  const Tensor logits = ForwardLogits(x);
  AddPhaseTime(&PhaseTimes::forward_ms, timer.Millis());

  // Phase 3: per-block softmax restricted to the mask (Algorithm 3 lines
  // 3-4), done with raw loops - no tensors needed for a single row.
  timer.Reset();
  double log_sel = 0.0;
  MaskedLogSelectivity(logits.data(), net_->output_blocks(), ranges, table_.num_columns(),
                       &log_sel);
  AddPhaseTime(&PhaseTimes::post_ms, timer.Millis());
  return std::exp(log_sel);
}

std::vector<double> DuetModel::EstimateSelectivityBatch(
    const std::vector<query::Query>& queries) const {
  tensor::NoGradScope no_grad;
  if (queries.empty()) return {};
  const int64_t total = static_cast<int64_t>(queries.size());
  const int64_t d = encoder_.total_width();
  const auto& blocks = net_->output_blocks();
  const int64_t out_dim = net_->output_dim();
  const int num_columns = table_.num_columns();
  std::vector<double> sels(static_cast<size_t>(total));

  for (int64_t begin = 0; begin < total; begin += kMaxQueriesPerForward) {
    const int64_t b = std::min(kMaxQueriesPerForward, total - begin);
    const query::Query* chunk = queries.data() + begin;

    Timer timer;
    Tensor x = Tensor::Zeros({b, d});
    std::vector<std::vector<query::CodeRange>> all_ranges(static_cast<size_t>(b));
    ParallelForChunked(
        0, b,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            encoder_.EncodeQueryRow(table_, chunk[r], x.data() + r * d);
            all_ranges[static_cast<size_t>(r)] = chunk[r].PerColumnRanges(table_);
          }
        },
        /*parallel=*/b >= 64, /*grain=*/16);
    AddPhaseTime(&PhaseTimes::encode_ms, timer.Millis());

    timer.Reset();
    const Tensor logits = ForwardLogits(x);
    AddPhaseTime(&PhaseTimes::forward_ms, timer.Millis());

    timer.Reset();
    const float* logit_base = logits.data();
    double* sel_base = sels.data() + begin;
    // Per-row masked softmax + log-space product; rows are independent, so
    // this parallelizes without affecting per-query numerics.
    ParallelForChunked(
        0, b,
        [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            double log_sel = 0.0;
            const bool ok =
                MaskedLogSelectivity(logit_base + r * out_dim, blocks,
                                     all_ranges[static_cast<size_t>(r)], num_columns,
                                     &log_sel);
            sel_base[r] = ok ? std::exp(log_sel) : 0.0;
          }
        },
        /*parallel=*/b >= 64, /*grain=*/16);
    AddPhaseTime(&PhaseTimes::post_ms, timer.Millis());
  }
  return sels;
}

}  // namespace duet::core
