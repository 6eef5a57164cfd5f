// Headline optimizer-in-the-loop bench: the provider-driven join-order
// planner (optimizer/card_provider.h, docs/optimizer.md) planning random
// star joins THROUGH the serving stack, scored with the plan-cost ratio
// (P-error of Han et al., paper ref [46]).
//
// Three estimator rows share one planner and one star workload:
//  * oracle    — ExactCardinalityProvider; P-error is 1.0 EXACTLY for every
//                query (bitwise-shared DP), asserted, nonzero exit if not;
//  * neural    — per-table trained Duet artifacts in a ModelZoo behind a
//                zoo-mode ServingEngine, one keyed Submit burst per DP
//                level (ServingCardinalityProvider);
//  * classical — per-table IndependenceEstimator, the fallback tier
//                (EstimatorCardinalityProvider).
//
// A second section A/Bs the estimation latency of one plan search with the
// level-batched fetch against a sequential one-request-at-a-time arm, both
// unmemoized so they issue identical request streams — the wall-clock value
// of handing the micro-batcher the whole fan-out at once.
//
// Flags: --rows=N --queries=N --epochs=N
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "baselines/traditional/independence.h"
#include "bench/bench_util.h"
#include "optimizer/card_provider.h"
#include "optimizer/planner.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"

namespace duet::bench {
namespace {

/// Equal-sized tables whose *filters* decide the join order; `correlation`
/// controls how badly the independence assumption misjudges the two-column
/// conjunction (0 = independent columns, the classical row is exact).
///
/// The generator draws each table an independent real-valued dictionary, so
/// the key column (col 0) is rebuilt onto the canonical 0..39 domain every
/// star table shares — star joins match by VALUE (JoinKeyStats /
/// data::EquiJoin semantics), and disjoint dictionaries would make every
/// join factor zero.
data::Table MakeStarTable(const std::string& name, int64_t rows, uint64_t seed,
                          double correlation) {
  data::SyntheticSpec spec;
  spec.name = name;
  spec.rows = rows;
  spec.seed = seed;
  spec.num_latent = 1;
  spec.latent_cardinality = 40;
  spec.columns = {{40, 0.4, 0.3, 0},
                  {12, 0.6, correlation, 0},
                  {12, 0.6, correlation, 0}};
  const data::Table generated = data::GenerateSynthetic(spec);

  std::vector<double> shared_domain(40);
  for (int32_t v = 0; v < 40; ++v) shared_domain[static_cast<size_t>(v)] = v;
  std::vector<data::Column> columns;
  for (int c = 0; c < generated.num_columns(); ++c) {
    const data::Column& src = generated.column(c);
    std::vector<int32_t> codes(static_cast<size_t>(generated.num_rows()));
    for (int64_t r = 0; r < generated.num_rows(); ++r) {
      codes[static_cast<size_t>(r)] = src.code(r);
    }
    columns.push_back(data::Column::FromCodes(
        src.name(), std::move(codes), c == 0 ? shared_domain : src.distinct()));
  }
  return data::Table(name, std::move(columns));
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv);
  const double scale = Flags::ScaleFactor();
  const int num_queries = static_cast<int>(flags.GetInt("queries", 60));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 20));
  const int64_t rows = flags.GetInt("rows", static_cast<int64_t>(6000 * scale));

  data::Table a = MakeStarTable("t_corr", rows, 1, /*correlation=*/0.95);
  data::Table b = MakeStarTable("t_mixed", rows, 2, /*correlation=*/0.6);
  data::Table c = MakeStarTable("t_indep", rows, 3, /*correlation=*/0.0);
  const std::vector<const data::Table*> tables = {&a, &b, &c};
  const int k = static_cast<int>(tables.size());

  // Train one Duet model per table and publish it as a zoo artifact — the
  // neural row estimates through the full serving path, not in-process.
  std::vector<std::string> model_keys, artifact_paths;
  serve::ModelZoo zoo;
  for (int t = 0; t < k; ++t) {
    core::DuetModelOptions mopt;
    mopt.hidden_sizes = {64, 64};
    mopt.residual = true;
    core::DuetModel model(*tables[static_cast<size_t>(t)], mopt);
    core::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 128;
    core::DuetTrainer(model, topt).Train();
    model.SetInferenceBackend(tensor::WeightBackend::kCsrF32);
    model.EstimateSelectivityBatch({query::Query{}});  // compile the plan
    const std::string path = "/tmp/duet_bench_plancost_" + std::to_string(::getpid()) +
                             "_" + std::to_string(t) + ".duet";
    const artifact::ArtifactStatus st =
        artifact::WriteArtifact(path, model, tensor::WeightBackend::kCsrF32);
    if (!st.ok) {
      std::fprintf(stderr, "artifact write failed: %s\n", st.error.c_str());
      return 1;
    }
    artifact_paths.push_back(path);
    model_keys.push_back("star-" + std::to_string(t));
    zoo.Register(model_keys.back(), path);
  }
  serve::ServingEngine engine(zoo);  // defaults: fused keyed micro-batching

  std::vector<std::unique_ptr<baselines::IndependenceEstimator>> indep_owned;
  std::vector<query::CardinalityEstimator*> indep;
  for (const data::Table* t : tables) {
    indep_owned.push_back(std::make_unique<baselines::IndependenceEstimator>(*t));
    indep.push_back(indep_owned.back().get());
  }

  const optimizer::JoinKeyStats stats(tables, /*join_col=*/0);
  optimizer::ServingCardinalityProvider neural(engine, model_keys, stats);
  optimizer::EstimatorCardinalityProvider classical(indep, stats);

  // Unmemoized batched vs sequential arms: identical request streams
  // (ell * C(k, ell) per level), only the waiting discipline differs.
  optimizer::ComposedProviderOptions fanout_batched;
  fanout_batched.memoize = false;
  optimizer::ComposedProviderOptions fanout_sequential;
  fanout_sequential.memoize = false;
  fanout_sequential.sequential = true;
  optimizer::ServingCardinalityProvider neural_batched(engine, model_keys, stats,
                                                       fanout_batched);
  optimizer::ServingCardinalityProvider neural_sequential(engine, model_keys, stats,
                                                          fanout_sequential);

  struct Row {
    const char* name;
    optimizer::CardinalityProvider* provider;  // null = oracle, built per query
    std::vector<double> ratios;
    uint64_t degraded = 0;
  };
  std::vector<Row> rows_out = {{"oracle", nullptr, {}, 0},
                               {"neural", &neural, {}, 0},
                               {"classical", &classical, {}, 0}};

  bool oracle_exact = true;
  double batched_us = 0.0, sequential_us = 0.0;
  Rng rng(777);
  for (int qi = 0; qi < num_queries; ++qi) {
    optimizer::StarJoinQuery star;
    star.tables = tables;
    star.join_col = 0;
    for (const data::Table* t : tables) {
      // Equality pairs on the correlated filter columns: the conjunction is
      // exactly where the independence assumption breaks.
      const data::Column& c1 = t->column(1);
      const data::Column& c2 = t->column(2);
      query::Query f;
      f.predicates.push_back(
          {1, query::PredOp::kEq,
           c1.Value(static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(c1.ndv()))))});
      f.predicates.push_back(
          {2, query::PredOp::kEq,
           c2.Value(static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(c2.ndv()))))});
      star.filters.push_back(f);
    }

    optimizer::JoinOrderPlanner planner(star);
    optimizer::ExactCardinalityProvider oracle(planner.exact());
    for (Row& row : rows_out) {
      optimizer::CardinalityProvider& provider =
          row.provider != nullptr ? *row.provider : static_cast<optimizer::CardinalityProvider&>(oracle);
      const optimizer::PlanSearchResult res = planner.Plan(provider);
      row.ratios.push_back(planner.PlanCostRatio(res.plan));
      row.degraded += res.degraded_estimates;
    }
    if (rows_out[0].ratios.back() != 1.0) oracle_exact = false;

    batched_us += planner.Plan(neural_batched).estimation_micros;
    sequential_us += planner.Plan(neural_sequential).estimation_micros;
  }

  std::printf("Plan-cost ratio (P-error) over %d random star-join queries\n"
              "(%d tables, %lld rows each, correlated filters; 1.0 = optimal plan;\n"
              " neural row served through a zoo-mode engine, one keyed burst per DP level)\n",
              num_queries, k, static_cast<long long>(rows));
  std::printf("%-10s %9s %9s %9s %9s %10s\n", "estimator", "mean", "p50", "p99", "max",
              "degraded");
  for (Row& row : rows_out) {
    const ErrorSummary s = ErrorSummary::FromValues(row.ratios);
    std::printf("%-10s %9.3f %9.3f %9.3f %9.3f %10llu\n", row.name, s.mean, s.median,
                s.p99, s.max, static_cast<unsigned long long>(row.degraded));
  }
  const double per_plan_batched = batched_us / num_queries;
  const double per_plan_sequential = sequential_us / num_queries;
  const double speedup =
      per_plan_batched > 0.0 ? per_plan_sequential / per_plan_batched : 0.0;
  std::printf("\nEstimation latency per plan search (unmemoized fan-out, same request "
              "stream):\n  batched  %9.1f us\n  sequential %7.1f us   (batch speedup "
              "%.2fx)\n",
              per_plan_batched, per_plan_sequential, speedup);

  const ErrorSummary neural_s = ErrorSummary::FromValues(rows_out[1].ratios);
  const ErrorSummary classical_s = ErrorSummary::FromValues(rows_out[2].ratios);
  const bool neural_beats_classical = neural_s.mean <= classical_s.mean;

  // Machine-readable line (docs/benchmarks.md schema).
  std::printf("\nJSON: {\"bench\":\"optimizer_plancost\",\"queries\":%d,\"tables\":%d,"
              "\"rows_per_table\":%lld,\"estimators\":[",
              num_queries, k, static_cast<long long>(rows));
  for (size_t i = 0; i < rows_out.size(); ++i) {
    const ErrorSummary s = ErrorSummary::FromValues(rows_out[i].ratios);
    std::printf("%s{\"name\":\"%s\",\"perror_p50\":%.6f,\"perror_p99\":%.6f,"
                "\"perror_max\":%.6f,\"degraded\":%llu}",
                i == 0 ? "" : ",", rows_out[i].name, s.median, s.p99, s.max,
                static_cast<unsigned long long>(rows_out[i].degraded));
  }
  std::printf("],\"batched_est_us_per_plan\":%.1f,\"sequential_est_us_per_plan\":%.1f,"
              "\"batch_speedup\":%.2f,\"oracle_exact\":%s,\"neural_beats_classical\":%s}\n",
              per_plan_batched, per_plan_sequential, speedup,
              oracle_exact ? "true" : "false", neural_beats_classical ? "true" : "false");

  for (const std::string& p : artifact_paths) ::unlink(p.c_str());
  if (!oracle_exact) {
    std::fprintf(stderr, "FAIL: oracle provider did not reproduce the optimal plan "
                         "(P-error != 1.0)\n");
    return 1;
  }
  return 0;
}
