// Using Duet on your own data: load a CSV, train, estimate, then ship the
// trained model two ways — a training checkpoint and an mmap-able serving
// artifact registered in a model zoo (docs/model_zoo.md).
//
//   csv_estimator [--csv=path/to/table.csv] [--epochs=N]
//                 [--where="col >= 3 AND other = 1 OR col < 1"]
//
// Without --csv the example writes and uses a small demo CSV so it runs
// out of the box. String columns are dictionary-encoded lexicographically;
// numeric columns keep their natural order, so range predicates behave as
// expected in both cases. --where accepts the paper's predicate fragment
// (= < > <= >=, AND/OR with AND binding tighter); OR clauses are estimated
// by inclusion-exclusion (paper Sec. III), with all intersection terms
// going through the batch-first API (EstimateSelectivityBatch) as one
// forward pass — the recommended way to drive any estimator in this repo.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "artifact/artifact.h"
#include "common/flags.h"
#include "core/disjunction.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/query.h"
#include "serve/model_zoo.h"

namespace {

constexpr const char* kDemoCsv =
    "region,product,price,quantity\n"
    "north,apple,1.5,10\nnorth,apple,1.5,12\nnorth,pear,2.0,7\n"
    "south,apple,1.4,20\nsouth,melon,4.5,2\nsouth,pear,2.1,6\n"
    "east,apple,1.5,11\neast,melon,4.0,3\neast,pear,2.0,8\n"
    "west,apple,1.6,9\nwest,melon,4.2,4\nwest,pear,1.9,14\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace duet;
  Flags flags(argc, argv);

  data::Table table = [&] {
    const std::string path = flags.GetString("csv", "");
    if (!path.empty()) return data::LoadCsvFile(path, "user_table");
    std::printf("no --csv given; using a built-in demo table\n");
    std::stringstream demo(kDemoCsv);
    return data::LoadCsv(demo, "demo");
  }();
  std::printf("loaded %s: %lld rows, %d columns\n", table.name().c_str(),
              static_cast<long long>(table.num_rows()), table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    std::printf("  column %-12s ndv=%d\n", table.column(c).name().c_str(),
                table.column(c).ndv());
  }

  core::DuetModelOptions mopt;
  mopt.hidden_sizes = {32, 32};
  core::DuetModel model(table, mopt);
  core::TrainOptions topt;
  topt.epochs = static_cast<int>(flags.GetInt("epochs", 30));
  topt.batch_size = std::min<int64_t>(64, table.num_rows());
  core::DuetTrainer(model, topt).Train();

  // Either the user's --where text, or a default range query over the
  // first column with ndv > 2.
  query::ParsedWhere parsed;
  const std::string where = flags.GetString("where", "");
  if (!where.empty()) {
    std::string error;
    if (!query::ParseWhere(where, table, &parsed, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  } else {
    int col = 0;
    for (int c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).ndv() > 2) {
        col = c;
        break;
      }
    }
    query::Query q;
    q.predicates.push_back(
        {col, query::PredOp::kLe, table.column(col).Value(table.column(col).ndv() / 2)});
    parsed.clauses.push_back(std::move(q));
  }

  query::ExactEvaluator exact(table);
  core::DuetEstimator estimator(model);
  // EstimateDisjunction builds every inclusion-exclusion term and estimates
  // them through one EstimateSelectivityBatch call (a single forward pass),
  // not a per-term scalar loop.
  const double sel = core::EstimateDisjunction(estimator, parsed.clauses);
  double actual = 0.0;
  {
    // Exact count of the DNF via inclusion-exclusion over the evaluator.
    class ExactAdapter : public query::CardinalityEstimator {
     public:
      explicit ExactAdapter(const data::Table& t) : table_(t), eval_(t) {}
      double EstimateSelectivity(const query::Query& q) override {
        return static_cast<double>(eval_.Count(q)) /
               static_cast<double>(table_.num_rows());
      }
      std::string name() const override { return "exact"; }

     private:
      const data::Table& table_;
      query::ExactEvaluator eval_;
    } exact_adapter(table);
    actual = core::EstimateDisjunction(exact_adapter, parsed.clauses) *
             static_cast<double>(table.num_rows());
  }
  for (size_t i = 0; i < parsed.clauses.size(); ++i) {
    std::printf("\nclause %zu: %s", i + 1, parsed.clauses[i].DebugString(table).c_str());
  }
  std::printf("\nestimated %.1f rows, actual %.0f rows\n",
              sel * static_cast<double>(table.num_rows()), actual);
  // Estimation above ran through the compiled inference plan (built
  // automatically on the first no-grad forward; docs/architecture.md §5).
  std::printf("inference plan: %.1f KiB compiled\n",
              static_cast<double>(estimator.PackedWeightBytes()) / 1024.0);

  // Checkpoint round-trip: the trained model can be reloaded for more
  // training or fine-tuning later.
  {
    std::ofstream out("/tmp/duet_demo.ckpt", std::ios::binary);
    BinaryWriter w(out);
    model.Save(w);
  }
  std::printf("checkpoint written to /tmp/duet_demo.ckpt (%.2f MB of weights)\n",
              model.SizeMB());

  // Serving hand-off: freeze the trained model into an mmap-able snapshot
  // artifact and serve it back through a model zoo by key — the multi-model
  // deployment path (docs/model_zoo.md). CSR packing is bitwise-equal to
  // the dense fp32 path, so the artifact serves the exact bits above.
  const std::string artifact_path = "/tmp/duet_demo.duet";
  {
    const artifact::ArtifactStatus st =
        artifact::WriteArtifact(artifact_path, model, tensor::WeightBackend::kCsrF32);
    if (!st.ok) {
      std::fprintf(stderr, "artifact write failed: %s\n", st.error.c_str());
      return 1;
    }
  }
  serve::ModelZoo zoo;
  zoo.Register(table.name(), artifact_path);
  serve::ZooPin pin;
  const artifact::ArtifactStatus st = zoo.TryAcquire(table.name(), &pin);
  if (!st.ok) {
    std::fprintf(stderr, "zoo load failed: %s\n", st.error.c_str());
    return 1;
  }
  const double zoo_sel = core::EstimateDisjunction(pin->estimator(), parsed.clauses);
  std::printf("artifact written to %s (%.1f KiB mapped), served via zoo key '%s': "
              "%.1f rows (%s the trained model)\n",
              artifact_path.c_str(),
              static_cast<double>(pin->model().mapped_bytes()) / 1024.0,
              pin->key().c_str(), zoo_sel * static_cast<double>(table.num_rows()),
              zoo_sel == sel ? "bitwise-equal to" : "DIVERGED from");
  return zoo_sel == sel ? 0 : 1;
}
