// Model-zoo serving bench (docs/model_zoo.md): cold-start latency and
// steady-state throughput of serve::ModelZoo + the zoo-mode ServingEngine
// over a large population of snapshot artifacts.
//
// Phases:
//  1. Artifact fleet: trains/constructs a few distinct tiny models, writes
//     each as an mmap-able artifact (artifact/artifact.h), and registers
//     --models keys (default 1000 x DUET_BENCH_SCALE) that fan out over
//     those files — registration is metadata-only, so 1k+ models cost one
//     hash-map entry each until touched.
//  2. Cold start: with an empty zoo, measures load-to-first-estimate
//     latency (mmap + validate + encoder rebuild + one estimate) across a
//     sample of keys; reports p50/p99 and the pure-load share.
//  3. Steady state: Zipf-distributed keyed EstimateBatch traffic through a
//     zoo-mode ServingEngine under a memory budget that keeps only
//     --resident_pct of the fleet mapped, so the run continuously evicts
//     and reloads; reports q/s, loads, evictions and resident bytes.
//
// The zero-repack contract is asserted, not just reported: across every
// zoo load and every served batch, tensor::PackWeightsCalls() must not
// move ("repacks":0 in the JSON line) — artifact serving points PackedArray
// views at the mapping and never rebuilds a pack.
//
// Output: one {"bench":"zoo",...} JSON line (schema in docs/benchmarks.md).
// Flags: --models=N --distinct=N --resident_pct=P --zipf_s=S
//        --cold_samples=N --batch=N --steady_seconds=S --workers=N
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "tensor/packed_weights.h"

namespace duet::bench {
namespace {

/// Writes `distinct` tiny artifacts (one per seed) and returns their paths.
std::vector<std::string> WriteArtifactFleet(const data::Table& table, int distinct) {
  std::vector<std::string> paths;
  for (int i = 0; i < distinct; ++i) {
    core::DuetModelOptions opt;
    opt.hidden_sizes = {24, 24};
    opt.residual = true;
    opt.seed = 4242 + static_cast<uint64_t>(i);
    core::DuetModel model(table, opt);
    model.SetInferenceBackend(tensor::WeightBackend::kCsrF32);
    const std::string path =
        "/tmp/duet_bench_zoo_" + std::to_string(::getpid()) + "_" + std::to_string(i) + ".duet";
    const artifact::ArtifactStatus st =
        artifact::WriteArtifact(path, model, tensor::WeightBackend::kCsrF32);
    if (!st.ok) {
      std::fprintf(stderr, "artifact write failed: %s\n", st.error.c_str());
      std::exit(1);
    }
    paths.push_back(path);
  }
  return paths;
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv);
  const double scale = Flags::ScaleFactor();

  const int num_models = static_cast<int>(flags.GetInt(
      "models", std::max<int64_t>(8, static_cast<int64_t>(1000 * scale))));
  const int distinct = static_cast<int>(flags.GetInt("distinct", 8));
  const double resident_pct = flags.GetDouble("resident_pct", 25.0);
  const double zipf_s = flags.GetDouble("zipf_s", 1.1);
  const int cold_samples =
      static_cast<int>(flags.GetInt("cold_samples", std::min(num_models, 64)));
  const int batch = static_cast<int>(flags.GetInt("batch", 16));
  const double steady_seconds = flags.GetDouble("steady_seconds", 2.0 * scale);
  const unsigned workers = static_cast<unsigned>(flags.GetInt("workers", 2));

  std::printf("model-zoo serving bench: %d models (%d distinct artifacts)\n", num_models,
              distinct);

  const data::Table table = data::CensusLike(1500, 42);
  const std::vector<std::string> paths = WriteArtifactFleet(table, distinct);
  const query::Workload workload = MakeRandQ(table, 256);
  std::vector<query::Query> queries;
  for (const auto& lq : workload) queries.push_back(lq.query);

  // One mapped artifact's size calibrates the budget.
  uint64_t artifact_bytes = 0;
  {
    std::shared_ptr<const artifact::ArtifactModel> probe;
    const artifact::ArtifactStatus st =
        artifact::LoadArtifact(paths[0], artifact::ArtifactLoadOptions{}, &probe);
    if (!st.ok) {
      std::fprintf(stderr, "artifact load failed: %s\n", st.error.c_str());
      return 1;
    }
    artifact_bytes = probe->mapped_bytes();
  }
  const uint64_t budget =
      std::max<uint64_t>(2 * artifact_bytes,
                         static_cast<uint64_t>(static_cast<double>(artifact_bytes) *
                                               num_models * resident_pct / 100.0));

  serve::ZooOptions zopt;
  zopt.memory_budget_bytes = budget;
  serve::ModelZoo zoo(zopt);
  for (int m = 0; m < num_models; ++m) {
    zoo.Register("model-" + std::to_string(m), paths[static_cast<size_t>(m % distinct)]);
  }

  // Everything from here on serves from mmap-ed artifacts: any PackWeights
  // call would mean the zero-repack contract broke.
  const uint64_t packs_before = tensor::PackWeightsCalls();

  // ---- phase 2: cold-start load-to-first-estimate ----
  std::vector<double> cold_us;
  std::vector<double> load_us;
  {
    Rng rng(7);
    for (int i = 0; i < cold_samples; ++i) {
      const std::string key = "model-" + std::to_string(rng.UniformInt(num_models));
      zoo.Evict(key);  // force a true cold touch even if sampled twice
      Timer timer;
      serve::ZooPin pin;
      const artifact::ArtifactStatus st = zoo.TryAcquire(key, &pin);
      if (!st.ok) {
        std::fprintf(stderr, "zoo acquire failed: %s\n", st.error.c_str());
        return 1;
      }
      pin->model().EstimateSelectivity(queries[static_cast<size_t>(i) % queries.size()]);
      cold_us.push_back(timer.Micros());
      serve::ZooModelStats ms;
      zoo.ModelStats(key, &ms);
      load_us.push_back(ms.last_load_micros);
    }
  }
  const double cold_p50 = Percentile(cold_us, 50.0);
  const double cold_p99 = Percentile(cold_us, 99.0);
  const double load_p50 = Percentile(load_us, 50.0);
  std::printf("cold start (n=%d): p50 %.0fus p99 %.0fus (pure load p50 %.0fus)\n",
              cold_samples, cold_p50, cold_p99, load_p50);

  // ---- phase 3: steady-state Zipf traffic under the budget ----
  uint64_t served = 0;
  double steady_qps = 0.0;
  ThreadPool::SetGlobalThreads(workers);  // engine shards run on the process pool
  {
    serve::ServingEngine engine(zoo);
    Rng rng(13);
    ZipfDistribution zipf(static_cast<uint32_t>(num_models), zipf_s);
    std::vector<query::Query> batch_queries(static_cast<size_t>(batch));
    Timer timer;
    while (timer.Seconds() < steady_seconds) {
      const std::string key = "model-" + std::to_string(zipf.Sample(rng));
      for (int q = 0; q < batch; ++q) {
        batch_queries[static_cast<size_t>(q)] =
            queries[rng.UniformInt(queries.size())];
      }
      engine.EstimateBatch(key, batch_queries);
      served += static_cast<uint64_t>(batch);
    }
    steady_qps = static_cast<double>(served) / timer.Seconds();
  }
  ThreadPool::SetGlobalThreads(0);

  const uint64_t repacks = tensor::PackWeightsCalls() - packs_before;
  const serve::ZooStats stats = zoo.stats();
  std::printf("steady state: %.0f q/s (%llu queries, %llu loads, %llu evictions, "
              "%.1f MB resident of %.1f MB budget)\n",
              steady_qps, static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(stats.loads),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<double>(stats.resident_bytes) / (1024.0 * 1024.0),
              static_cast<double>(budget) / (1024.0 * 1024.0));
  if (repacks != 0) {
    std::fprintf(stderr, "FAIL: %llu PackWeights calls during zoo serving (expected 0)\n",
                 static_cast<unsigned long long>(repacks));
    return 1;
  }

  std::printf(
      "{\"bench\":\"zoo\",\"models\":%d,\"distinct\":%d,\"artifact_bytes\":%llu,"
      "\"budget_bytes\":%llu,\"cold_p50_us\":%.1f,\"cold_p99_us\":%.1f,"
      "\"load_p50_us\":%.1f,\"steady_qps\":%.1f,\"served\":%llu,\"loads\":%llu,"
      "\"evictions\":%llu,\"resident_bytes\":%llu,\"repacks\":%llu}\n",
      num_models, distinct, static_cast<unsigned long long>(artifact_bytes),
      static_cast<unsigned long long>(budget), cold_p50, cold_p99, load_p50, steady_qps,
      static_cast<unsigned long long>(served), static_cast<unsigned long long>(stats.loads),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.resident_bytes),
      static_cast<unsigned long long>(repacks));

  for (const std::string& p : paths) ::unlink(p.c_str());
  return 0;
}
