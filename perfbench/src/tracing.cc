#include "tracing.h"

#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "harness.h"
#include "tensor/tensor.h"

namespace perfbench {

using duet::query::Query;

uint64_t QueryFingerprint(const Query& query) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over (col, op, value bits)
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& p : query.predicates) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.value, sizeof(bits));
    mix(static_cast<uint64_t>(p.col));
    mix(static_cast<uint64_t>(p.op));
    mix(bits);
  }
  return h;
}

namespace {
/// One in this many traced calls also runs the delegate and compares.
constexpr uint64_t kSplitCheckEvery = 16;
}  // namespace

TracedEstimator::TracedEstimator(const duet::core::DuetModel& model)
    : model_(model), delegate_(model) {}

double TracedEstimator::EstimateSelectivity(const Query& query) {
  return EstimateSelectivityBatch({query})[0];
}

std::vector<double> TracedEstimator::SplitEstimate(const std::vector<Query>& queries,
                                                   CallSpan* span) const {
  duet::tensor::NoGradScope no_grad;
  const size_t n = queries.size();
  const int64_t b = static_cast<int64_t>(n);
  const duet::data::Table& table = model_.table();
  const auto& encoder = model_.encoder();
  const auto& blocks = model_.backbone().output_blocks();
  const int64_t out_dim = model_.backbone().output_dim();
  const int num_columns = table.num_columns();

  int64_t t0 = NowNs();
  duet::tensor::Tensor x = duet::tensor::Tensor::Zeros({b, encoder.total_width()});
  encoder.EncodeQueryBatch(table, queries, x.data());
  std::vector<std::vector<duet::query::CodeRange>> ranges(n);
  for (size_t r = 0; r < n; ++r) ranges[r] = queries[r].PerColumnRanges(table);
  int64_t t1 = NowNs();
  const duet::tensor::Tensor logits = model_.ForwardLogits(x);
  int64_t t2 = NowNs();
  std::vector<double> sels(n);
  const float* logit_base = logits.data();
  duet::ParallelForChunked(
      0, b,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          double log_sel = 0.0;
          const bool ok = duet::core::MaskedLogSelectivity(
              logit_base + r * out_dim, blocks, ranges[static_cast<size_t>(r)], num_columns,
              &log_sel);
          sels[static_cast<size_t>(r)] = ok ? std::exp(log_sel) : 0.0;
        }
      },
      /*parallel=*/b >= 64, /*grain=*/16);
  int64_t t3 = NowNs();
  span->encode_ns = static_cast<double>(t1 - t0);
  span->forward_ns = static_cast<double>(t2 - t1);
  span->post_ns = static_cast<double>(t3 - t2);
  return sels;
}

std::vector<double> TracedEstimator::EstimateSelectivityBatch(const std::vector<Query>& queries) {
  if (!tracing() || queries.empty()) return delegate_.EstimateSelectivityBatch(queries);
  CallSpan span;
  span.rows = static_cast<int64_t>(queries.size());
  span.start_ns = NowNs();
  std::vector<double> out = SplitEstimate(queries, &span);
  span.end_ns = NowNs();
  if (call_counter_.fetch_add(1, std::memory_order_relaxed) % kSplitCheckEvery == 0) {
    const std::vector<double> ref = delegate_.EstimateSelectivityBatch(queries);
    split_checks_.fetch_add(1);
    if (ref.size() != out.size() ||
        std::memcmp(ref.data(), out.data(), out.size() * sizeof(double)) != 0) {
      split_mismatches_.fetch_add(1);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back(span);
  for (const Query& q : queries) {
    queries_.push_back(QuerySpan{QueryFingerprint(q), span.start_ns, span.end_ns});
  }
  return out;
}

std::vector<CallSpan> TracedEstimator::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::vector<QuerySpan> TracedEstimator::queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_;
}

void TracedEstimator::ClearSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.clear();
  queries_.clear();
}

class TracedProvider::TracedSession : public duet::optimizer::CardinalityProvider::Session {
 public:
  TracedSession(TracedProvider& owner, size_t plan_index, std::unique_ptr<Session> inner)
      : owner_(owner), plan_index_(plan_index), inner_(std::move(inner)) {}

  std::vector<duet::optimizer::SubsetEstimate> EstimateSubsets(
      const std::vector<uint32_t>& subsets) override {
    const int64_t start = NowNs();
    std::vector<duet::optimizer::SubsetEstimate> out = inner_->EstimateSubsets(subsets);
    owner_.RecordFetch(plan_index_, static_cast<double>(NowNs() - start) / 1e3);
    return out;
  }

 private:
  TracedProvider& owner_;
  size_t plan_index_;
  std::unique_ptr<Session> inner_;
};

std::unique_ptr<duet::optimizer::CardinalityProvider::Session> TracedProvider::StartPlan(
    const duet::optimizer::StarJoinQuery& star) {
  std::unique_ptr<Session> inner = inner_.StartPlan(star);
  size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = plans_.size();
    plans_.emplace_back();
  }
  return std::make_unique<TracedSession>(*this, index, std::move(inner));
}

void TracedProvider::RecordFetch(size_t plan_index, double micros) {
  std::lock_guard<std::mutex> lock(mu_);
  fetch_us_.push_back(micros);
  if (plan_index >= plans_.size()) return;  // started before the last ClearSpans
  plans_[plan_index].fetches++;
  plans_[plan_index].fetch_us += micros;
}

std::vector<double> TracedProvider::fetch_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetch_us_;
}

std::vector<PlanSpan> TracedProvider::plans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_;
}

void TracedProvider::ClearSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  fetch_us_.clear();
  plans_.clear();
}

}  // namespace perfbench
