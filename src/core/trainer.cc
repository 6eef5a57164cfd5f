#include "core/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"

namespace duet::core {

using tensor::Tensor;

namespace {

SamplerOptions MakeSamplerOptions(const TrainOptions& opt, const data::Table& table) {
  SamplerOptions s;
  s.expand = opt.expand;
  s.wildcard_prob = opt.wildcard_prob;
  s.parallel = opt.parallel_sampler;
  if (opt.importance_workload != nullptr) {
    s.op_weights = OpWeightsFromWorkload(*opt.importance_workload);
    s.value_weights = ValueWeightsFromWorkload(table, *opt.importance_workload);
  }
  return s;
}

}  // namespace

DuetTrainer::DuetTrainer(DuetModel& model, TrainOptions options)
    : model_(model),
      options_(options),
      sampler_(model.table(), MakeSamplerOptions(options, model.table())),
      optimizer_(model.parameters(), options.learning_rate),
      rng_(options.seed) {
  DUET_CHECK_GT(options_.batch_size, 0);
  if (options_.train_workload != nullptr) {
    DUET_CHECK(!options_.train_workload->empty());
  }
}

EpochStats DuetTrainer::TrainEpoch(int epoch_index) {
  const data::Table& table = model_.table();
  const int64_t rows = table.num_rows();
  // Anchor budget for this epoch: the whole table unless capped (online
  // fine-tuning rounds bound their cost this way); the permutation below
  // still spans all rows, so a capped epoch sees an unbiased subsample.
  const int64_t rows_used = options_.max_rows_per_epoch > 0
                                ? std::min<int64_t>(rows, options_.max_rows_per_epoch)
                                : rows;
  const int64_t bs = std::min<int64_t>(options_.batch_size, rows_used);
  const bool hybrid = options_.train_workload != nullptr && options_.lambda > 0.0f;

  // Activation and gradient buffers recycle across this epoch's steps.
  tensor::TrainingScope step_buffers;
  Timer timer;
  std::vector<uint32_t> perm = rng_.Permutation(static_cast<uint32_t>(rows));
  EpochStats stats;
  stats.epoch = epoch_index;
  int64_t steps = 0;
  int64_t tuples = 0;
  double raw_q_sum = 0.0;
  int64_t raw_q_count = 0;

  for (int64_t begin = 0; begin + bs <= rows_used; begin += bs) {
    std::vector<int64_t> anchors(static_cast<size_t>(bs));
    for (int64_t i = 0; i < bs; ++i) {
      anchors[static_cast<size_t>(i)] = perm[static_cast<size_t>(begin + i)];
    }
    const VirtualBatch vb = sampler_.Sample(anchors, rng_());

    optimizer_.ZeroGrad();
    Tensor data_loss = model_.DataLoss(vb);
    Tensor loss = data_loss;

    double step_query_loss = 0.0;
    if (hybrid) {
      // Collect bs queries from the training workload, cycling (Alg. 2 L4).
      const query::Workload& wl = *options_.train_workload;
      const size_t take = std::min<size_t>(static_cast<size_t>(bs), wl.size());
      std::vector<query::Query> queries;
      std::vector<float> actual(take);
      queries.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        const query::LabeledQuery& lq = wl[(workload_cursor_ + i) % wl.size()];
        queries.push_back(lq.query);
        actual[i] = std::max<float>(1.0f, static_cast<float>(lq.cardinality));
      }
      workload_cursor_ = (workload_cursor_ + take) % wl.size();

      Tensor sel = model_.SelectivityBatch(queries);  // [take]
      Tensor est =
          tensor::ClampMin(tensor::MulScalar(sel, static_cast<float>(table.num_rows())), 1.0f);
      Tensor act = Tensor::FromVector({static_cast<int64_t>(take)},
                                      std::vector<float>(actual.begin(), actual.end()));
      // QError = max(est, act) / min(est, act), branch chosen per element
      // from the already-computed forward values (gradient is exact a.e.).
      std::vector<float> cond(take);
      for (size_t i = 0; i < take; ++i) {
        cond[i] = est.data()[i] > actual[i] ? 1.0f : 0.0f;
      }
      Tensor qerr = tensor::Select(cond, tensor::Div(est, act), tensor::Div(act, est));
      for (size_t i = 0; i < take; ++i) {
        raw_q_sum += static_cast<double>(qerr.data()[i]);
      }
      raw_q_count += static_cast<int64_t>(take);

      Tensor lquery;
      if (options_.map_query_loss) {
        // log2(q + 1): bounded gradients, same convergence order as L_data.
        lquery = tensor::MeanAll(
            tensor::MulScalar(tensor::Log(tensor::AddScalar(qerr, 1.0f)), 1.4426950409f));
      } else {
        lquery = tensor::MeanAll(qerr);  // UAE-style raw Q-error
      }
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
  stats.raw_qerror = raw_q_count > 0 ? raw_q_sum / static_cast<double>(raw_q_count) : 0.0;
  stats.seconds = timer.Seconds();
  stats.tuples_per_second =
      stats.seconds > 0.0 ? static_cast<double>(tuples) / stats.seconds : 0.0;
  return stats;
}

std::vector<EpochStats> DuetTrainer::Train(
    const std::function<void(const EpochStats&)>& on_epoch) {
  // One arena for every epoch of this call; freed when it returns.
  tensor::TrainingScope step_buffers;
  std::vector<EpochStats> history;
  history.reserve(static_cast<size_t>(options_.epochs));
  for (int e = 0; e < options_.epochs; ++e) {
    history.push_back(TrainEpoch(e));
    if (on_epoch) on_epoch(history.back());
  }
  return history;
}

}  // namespace duet::core
