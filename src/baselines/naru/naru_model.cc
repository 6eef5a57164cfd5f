#include "baselines/naru/naru_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/timer.h"
#include "tensor/ops.h"

namespace duet::baselines {

using tensor::Tensor;

namespace {

/// Rows per batched forward; bounds peak activation memory when many
/// queries' sample sets are concatenated. Whole queries only, so chunking
/// never changes any row's content.
constexpr int64_t kMaxRowsPerForward = 8192;

/// One progressive-sampling round: updates the `s` sample weights and draws
/// the next values for one query on column `c`, reading that query's logits
/// (`s` rows of `out_dim`). Shared verbatim by the scalar and batched paths
/// so they stay bit-identical.
void ProgressiveRound(const float* lp, int64_t out_dim, const tensor::BlockSpec& blk,
                      const query::CodeRange& r, int64_t s, int n, int c,
                      std::vector<double>& p, std::vector<int32_t>& samples, duet::Rng& rng) {
  for (int64_t i = 0; i < s; ++i) {
    if (p[static_cast<size_t>(i)] == 0.0) continue;
    const float* ls = lp + i * out_dim + blk.offset;
    float mx = ls[0];
    for (int64_t j = 1; j < blk.len; ++j) mx = std::max(mx, ls[j]);
    double denom = 0.0, mass = 0.0;
    for (int64_t j = 0; j < blk.len; ++j) {
      const double e = std::exp(static_cast<double>(ls[j] - mx));
      denom += e;
      if (j >= r.lo && j < r.hi) mass += e;
    }
    const double factor = mass / denom;
    p[static_cast<size_t>(i)] *= factor;
    if (factor <= 0.0) {
      p[static_cast<size_t>(i)] = 0.0;
      samples[static_cast<size_t>(i * n + c)] = r.lo;
      continue;
    }
    // Progressive step: draw the next value from the masked distribution.
    double u = rng.UniformDouble() * mass;
    int32_t chosen = r.hi - 1;
    for (int32_t j = r.lo; j < r.hi; ++j) {
      u -= std::exp(static_cast<double>(ls[j] - mx));
      if (u <= 0.0) {
        chosen = j;
        break;
      }
    }
    samples[static_cast<size_t>(i * n + c)] = chosen;
  }
}

}  // namespace

uint64_t DeterministicQuerySeed(const query::Query& query, uint64_t base) {
  uint64_t h = base ^ 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const query::Predicate& p : query.predicates) {
    mix(static_cast<uint64_t>(p.col));
    mix(static_cast<uint64_t>(p.op));
    uint64_t bits = 0;
    std::memcpy(&bits, &p.value, sizeof(bits));
    mix(bits);
  }
  return h;
}

NaruModel::NaruModel(const data::Table& table, NaruOptions options)
    : table_(table), options_(std::move(options)), encoder_(table, options_.encoding) {
  Rng rng(options_.seed);
  nn::MadeOptions made_opt;
  made_opt.input_widths = encoder_.BlockWidths();
  made_opt.output_widths = table.ColumnNdvs();
  made_opt.hidden_sizes = options_.hidden_sizes;
  made_opt.residual = options_.residual;
  made_ = std::make_unique<nn::Made>(made_opt, rng);
  RegisterChild(*made_);
}

Tensor NaruModel::EncodeCodes(const std::vector<int32_t>& codes, int64_t batch) const {
  const int n = table_.num_columns();
  DUET_CHECK_EQ(static_cast<int64_t>(codes.size()), batch * n);
  const int64_t d = encoder_.total_width();
  Tensor x = Tensor::Zeros({batch, d});
  float* xp = x.data();
  for (int64_t r = 0; r < batch; ++r) {
    float* row = xp + r * d;
    for (int c = 0; c < n; ++c) {
      const int32_t code = codes[static_cast<size_t>(r * n + c)];
      if (code < 0) continue;  // wildcard block stays zero
      encoder_.EncodeValue(c, code, row + encoder_.block_offset(c));
    }
  }
  return x;
}

Tensor NaruModel::DataLoss(const std::vector<int64_t>& anchor_rows, uint64_t seed) const {
  const int64_t b = static_cast<int64_t>(anchor_rows.size());
  const int n = table_.num_columns();
  Rng rng(seed);
  std::vector<int32_t> inputs(static_cast<size_t>(b * n));
  std::vector<int32_t> labels(static_cast<size_t>(b * n));
  for (int64_t r = 0; r < b; ++r) {
    for (int c = 0; c < n; ++c) {
      const int32_t code = table_.code(anchor_rows[static_cast<size_t>(r)], c);
      labels[static_cast<size_t>(r * n + c)] = code;
      const bool wildcard =
          options_.wildcard_prob > 0.0 && rng.Bernoulli(options_.wildcard_prob);
      inputs[static_cast<size_t>(r * n + c)] = wildcard ? -1 : code;
    }
  }
  const Tensor x = EncodeCodes(inputs, b);
  const Tensor logits = made_->Forward(x);
  return tensor::CrossEntropyBlocks(logits, made_->output_blocks(), labels);
}

double NaruModel::EstimateSelectivity(const query::Query& query, Rng& rng) const {
  tensor::NoGradScope no_grad;
  const int n = table_.num_columns();
  const int64_t s = options_.num_samples;
  Timer timer;

  const auto ranges = query.PerColumnRanges(table_);
  for (const query::CodeRange& r : ranges) {
    if (r.empty()) return 0.0;
  }
  bool any_constrained = false;
  for (int c = 0; c < n; ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    if (!(r.lo == 0 && r.hi == table_.column(c).ndv())) any_constrained = true;
  }
  if (!any_constrained) return 1.0;

  std::vector<int32_t> samples(static_cast<size_t>(s * n), -1);
  std::vector<double> p(static_cast<size_t>(s), 1.0);
  AddPhaseTime(&core::PhaseTimes::encode_ms, timer.Millis());

  const auto& blocks = made_->output_blocks();
  for (int c = 0; c < n; ++c) {
    const query::CodeRange& r = ranges[static_cast<size_t>(c)];
    if (r.lo == 0 && r.hi == table_.column(c).ndv()) continue;  // wildcard skipping

    // Encode current partial samples + one forward pass (the O(n) cost).
    timer.Reset();
    const Tensor x = EncodeCodes(samples, s);
    AddPhaseTime(&core::PhaseTimes::encode_ms, timer.Millis());
    timer.Reset();
    const Tensor logits = made_->Forward(x);
    AddPhaseTime(&core::PhaseTimes::forward_ms, timer.Millis());

    timer.Reset();
    ProgressiveRound(logits.data(), made_->output_dim(), blocks[static_cast<size_t>(c)], r, s,
                     n, c, p, samples, rng);
    AddPhaseTime(&core::PhaseTimes::post_ms, timer.Millis());
  }

  double total = 0.0;
  for (double v : p) total += v;
  return total / static_cast<double>(s);
}

double NaruModel::EstimateSelectivitySeeded(const query::Query& query, uint64_t seed) const {
  Rng rng(seed);
  return EstimateSelectivity(query, rng);
}

std::vector<double> NaruModel::EstimateSelectivityBatch(
    const std::vector<query::Query>& queries, uint64_t seed_base) const {
  tensor::NoGradScope no_grad;
  const int n = table_.num_columns();
  const int64_t s = options_.num_samples;
  const int64_t b = static_cast<int64_t>(queries.size());
  std::vector<double> result(static_cast<size_t>(b), 1.0);

  // Per-query progressive-sampling state; queries that short-circuit
  // (contradiction -> 0, all-wildcard -> 1) never enter a round.
  struct QueryState {
    int64_t qi = 0;
    std::vector<query::CodeRange> ranges;
    std::vector<int32_t> samples;
    std::vector<double> p;
    Rng rng;
  };
  std::vector<QueryState> states;
  for (int64_t qi = 0; qi < b; ++qi) {
    const query::Query& q = queries[static_cast<size_t>(qi)];
    auto ranges = q.PerColumnRanges(table_);
    bool empty = false, any_constrained = false;
    for (int c = 0; c < n; ++c) {
      const query::CodeRange& r = ranges[static_cast<size_t>(c)];
      empty = empty || r.empty();
      if (!(r.lo == 0 && r.hi == table_.column(c).ndv())) any_constrained = true;
    }
    if (empty) {
      result[static_cast<size_t>(qi)] = 0.0;
      continue;
    }
    if (!any_constrained) continue;  // stays 1.0
    QueryState st;
    st.qi = qi;
    st.ranges = std::move(ranges);
    st.samples.assign(static_cast<size_t>(s * n), -1);
    st.p.assign(static_cast<size_t>(s), 1.0);
    st.rng = Rng(DeterministicQuerySeed(q, seed_base));
    states.push_back(std::move(st));
  }

  const auto& blocks = made_->output_blocks();
  const int64_t out_dim = made_->output_dim();
  const int64_t queries_per_chunk = std::max<int64_t>(1, kMaxRowsPerForward / s);
  std::vector<int32_t> codes;
  for (int c = 0; c < n; ++c) {
    // Round roster: every query constraining column c, in query order.
    std::vector<QueryState*> roster;
    for (QueryState& st : states) {
      const query::CodeRange& r = st.ranges[static_cast<size_t>(c)];
      if (!(r.lo == 0 && r.hi == table_.column(c).ndv())) roster.push_back(&st);
    }
    // One forward per chunk of whole queries: their sample sets concatenate
    // into a [chunk*s, input] batch, then each query consumes its own rows
    // and Rng exactly as the scalar path would.
    for (size_t begin = 0; begin < roster.size();
         begin += static_cast<size_t>(queries_per_chunk)) {
      const size_t end =
          std::min(roster.size(), begin + static_cast<size_t>(queries_per_chunk));
      codes.clear();
      for (size_t qi = begin; qi < end; ++qi) {
        codes.insert(codes.end(), roster[qi]->samples.begin(), roster[qi]->samples.end());
      }
      const Tensor x = EncodeCodes(codes, static_cast<int64_t>(end - begin) * s);
      const Tensor logits = made_->Forward(x);
      for (size_t qi = begin; qi < end; ++qi) {
        QueryState& st = *roster[qi];
        const float* lp = logits.data() + static_cast<int64_t>(qi - begin) * s * out_dim;
        ProgressiveRound(lp, out_dim, blocks[static_cast<size_t>(c)],
                         st.ranges[static_cast<size_t>(c)], s, n, c, st.p, st.samples,
                         st.rng);
      }
    }
  }

  for (const QueryState& st : states) {
    double total = 0.0;
    for (double v : st.p) total += v;
    result[static_cast<size_t>(st.qi)] = total / static_cast<double>(s);
  }
  return result;
}

NaruTrainer::NaruTrainer(NaruModel& model, core::TrainOptions options)
    : model_(model),
      options_(options),
      optimizer_(model.parameters(), options.learning_rate),
      rng_(options.seed) {}

core::EpochStats NaruTrainer::TrainEpoch(int epoch_index) {
  const data::Table& table = model_.table();
  const int64_t rows = table.num_rows();
  const int64_t bs = std::min<int64_t>(options_.batch_size, rows);
  // Activation and gradient buffers recycle across this epoch's steps.
  tensor::TrainingScope step_buffers;
  Timer timer;
  std::vector<uint32_t> perm = rng_.Permutation(static_cast<uint32_t>(rows));
  core::EpochStats stats;
  stats.epoch = epoch_index;
  int64_t steps = 0, tuples = 0;
  for (int64_t begin = 0; begin + bs <= rows; begin += bs) {
    std::vector<int64_t> anchors(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      anchors[static_cast<size_t>(i)] = perm[static_cast<size_t>(begin + i)];
    }
    optimizer_.ZeroGrad();
    Tensor loss = model_.DataLoss(anchors, rng_());
    loss.Backward();
    optimizer_.Step();
    stats.data_loss += static_cast<double>(loss.item());
    ++steps;
    tuples += bs;
  }
  if (steps > 0) stats.data_loss /= static_cast<double>(steps);
  stats.seconds = timer.Seconds();
  stats.tuples_per_second =
      stats.seconds > 0.0 ? static_cast<double>(tuples) / stats.seconds : 0.0;
  return stats;
}

std::vector<core::EpochStats> NaruTrainer::Train(
    const std::function<void(const core::EpochStats&)>& on_epoch) {
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  std::vector<core::EpochStats> history;
  for (int e = 0; e < options_.epochs; ++e) {
    history.push_back(TrainEpoch(e));
    if (on_epoch) on_epoch(history.back());
  }
  return history;
}

}  // namespace duet::baselines
