// Table III reproduction: training throughput (tuples/s) of the data-driven
// and hybrid methods on the three datasets. The expected shape (paper):
// Naru > DuetD > Duet >> UAE, with UAE OOM on the high-dimensional dataset
// at its paper-scale sampling configuration.
//
// Also measures serving-side inference throughput of the Duet estimator:
//  * single-thread batch sweep through EstimateSelectivityBatch (batch
//    1/8/64/512) with the batch-1 encode/forward/post phase split (the
//    masked-weight cache's target metric),
//  * a multi-thread serving sweep through serve::ServingEngine (1/2/4/8
//    workers x the same batch sizes), with a bitwise sharded-vs-single-
//    thread equality check, and
//  * a packed-weight backend sweep (dense fp32 / CSR sparse / int8 / int4)
//    through the compiled inference plan: batch-1 and batch-64
//    queries/sec per backend, the plan's packed-weight footprint, plan
//    compile time / cache hits, and the median q-error delta vs the fp32
//    path on the seeded workload (exactly 0 for CSR, bounded for
//    int8/int4), and
//  * a cross-request fusion A/B through the async micro-batcher: the same
//    batch-1 submission stream with GEMV->GEMM fusion on vs off (max_batch
//    64 vs 1), with a
//    bitwise per-request identity check between the two arms (fusion
//    changes throughput, never answers).
// The JSON line carries the runtime-selected SIMD tier ("isa") and the
// host hardware thread count ("hw_threads") so numbers from different
// machines are comparable.
// All sweeps are emitted in one JSON line for tooling (schema documented
// in docs/benchmarks.md).
//
// With --live_update, additionally measures zero-downtime online updates
// (docs/serving.md): serving through a ModelRegistry-backed engine while a
// background UpdateWorker fine-tunes on served-traffic feedback and
// hot-swaps snapshots in — sustained live throughput vs steady state, the
// publish/swap latencies, update verdict counters, and the median q-error
// before/after the updates, emitted as a second JSON line
// ({"bench":"live_update",...}).
//
// With --overload, additionally measures admission control under
// saturation (docs/resilience.md): a self-calibrated open-loop stream at
// 0.5x and 4x the engine's measured capacity through a bounded queue with
// deadlines — offered vs served load, shed/expired/fallback counts and the
// admitted p50/p99, emitted as a third JSON line ({"bench":"overload",...}).
//
// Flags: --datasets=census,kdd,dmv --batch=N --sweep_queries=N
//        --sweep_min_seconds=S --sweep=0|1 --sweep_scalar=0|1
//        --sweep_hidden=N --backend=dense,csr,int8,int4 --backend_hidden=N
//        --live_update --live_hidden=N --live_queries=N
//        --live_publishes=N --live_min_seconds=S --live_max_seconds=S
//        --overload --overload_hidden=N --overload_workers=N
//        --overload_seconds=S
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "baselines/traditional/independence.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/finetune.h"
#include "serve/model_registry.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"
#include "tensor/packed_weights.h"
#include "tensor/simd_dispatch.h"

namespace duet::bench {
namespace {

struct Row {
  std::string dataset;
  double naru = 0.0;
  double uae = 0.0;
  bool uae_oom = false;
  double duetd = 0.0;
  double duet = 0.0;
};

Row RunDataset(const data::Table& t, int64_t batch, int uae_samples) {
  Row row;
  row.dataset = t.name();
  const query::Workload train_wl = MakeTrainingWorkload(t, 200);

  {
    baselines::NaruModel model(t, NaruOptionsFor(t, 100));
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = batch;
    row.naru = baselines::NaruTrainer(model, topt).TrainEpoch(0).tuples_per_second;
  }
  {
    baselines::UaeOptions uopt;
    uopt.naru = NaruOptionsFor(t, 100);
    uopt.train_samples = uae_samples;
    uopt.memory_budget_mb = 10240;
    baselines::UaeModel model(t, uopt);
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = batch;
    topt.train_workload = &train_wl;
    baselines::UaeTrainer trainer(model, topt);
    const auto stats = trainer.TrainEpoch(0);
    row.uae_oom = trainer.oom();
    row.uae = stats.tuples_per_second;
  }
  {
    core::DuetModel model(t, DuetOptionsFor(t));
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = batch;
    row.duetd = core::DuetTrainer(model, topt).TrainEpoch(0).tuples_per_second;
  }
  {
    core::DuetModel model(t, DuetOptionsFor(t));
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = batch;
    topt.train_workload = &train_wl;
    row.duet = core::DuetTrainer(model, topt).TrainEpoch(0).tuples_per_second;
  }
  return row;
}

/// Single-thread queries/sec of `est` at one batch size: the query stream is
/// processed in chunks of `batch` through the batch-first API, repeated
/// until `min_seconds` of wall time accumulate.
double MeasureBatchedQps(query::CardinalityEstimator& est,
                         const std::vector<query::Query>& queries, int64_t batch,
                         double min_seconds) {
  // Pre-slice the stream so chunk construction is not charged to the
  // estimator.
  std::vector<std::vector<query::Query>> chunks;
  for (size_t begin = 0; begin < queries.size(); begin += static_cast<size_t>(batch)) {
    const size_t end = std::min(queries.size(), begin + static_cast<size_t>(batch));
    chunks.emplace_back(queries.begin() + static_cast<int64_t>(begin),
                        queries.begin() + static_cast<int64_t>(end));
  }
  // Warm-up pass: populates the inference arena so the measured steady
  // state performs no activation allocations.
  for (const auto& chunk : chunks) est.EstimateSelectivityBatch(chunk);
  Timer timer;
  int64_t done = 0;
  do {
    for (const auto& chunk : chunks) {
      est.EstimateSelectivityBatch(chunk);
      done += static_cast<int64_t>(chunk.size());
    }
  } while (timer.Seconds() < min_seconds);
  return static_cast<double>(done) / timer.Seconds();
}

/// Queries/sec through the sharded serving engine at one batch size (same
/// chunked protocol as MeasureBatchedQps so numbers are comparable).
double MeasureServingQps(serve::ServingEngine& engine,
                         const std::vector<query::Query>& queries, int64_t batch,
                         double min_seconds) {
  std::vector<std::vector<query::Query>> chunks;
  for (size_t begin = 0; begin < queries.size(); begin += static_cast<size_t>(batch)) {
    const size_t end = std::min(queries.size(), begin + static_cast<size_t>(batch));
    chunks.emplace_back(queries.begin() + static_cast<int64_t>(begin),
                        queries.begin() + static_cast<int64_t>(end));
  }
  // Warm-up: populates each worker thread's inference arena.
  for (const auto& chunk : chunks) engine.EstimateBatch(chunk);
  Timer timer;
  int64_t done = 0;
  do {
    for (const auto& chunk : chunks) {
      engine.EstimateBatch(chunk);
      done += static_cast<int64_t>(chunk.size());
    }
  } while (timer.Seconds() < min_seconds);
  return static_cast<double>(done) / timer.Seconds();
}

/// Queries/sec of batch-1 async submissions through the micro-batcher at one
/// fusion setting: fused micro-batches of up to 64, or max_batch = 1, where
/// every query is resolved and served alone. The per-request
/// answers of the warm-up pass are captured so the caller can assert the
/// fused and unfused arms bitwise-identical — the fusion contract is that
/// coalescing same-target GEMVs into one GEMM changes throughput, never
/// values.
double MeasureAsyncQps(query::CardinalityEstimator& est,
                       const std::vector<query::Query>& queries, bool fuse,
                       double min_seconds, std::vector<double>* answers) {
  serve::ServingOptions sopt;
  sopt.max_batch = fuse ? 64 : 1;
  sopt.max_wait_us = 200;
  serve::ServingEngine engine(est, sopt);
  // Warm-up (populates worker arenas) doubles as the answer capture.
  std::vector<serve::ServingEngine::Future> warm;
  warm.reserve(queries.size());
  for (const auto& q : queries) warm.push_back(engine.Submit(q));
  answers->clear();
  answers->reserve(queries.size());
  for (auto& f : warm) answers->push_back(f.Wait());
  Timer timer;
  int64_t done = 0;
  do {
    std::vector<serve::ServingEngine::Future> futures;
    futures.reserve(queries.size());
    for (const auto& q : queries) futures.push_back(engine.Submit(q));
    for (auto& f : futures) f.Wait();
    done += static_cast<int64_t>(queries.size());
  } while (timer.Seconds() < min_seconds);
  return static_cast<double>(done) / timer.Seconds();
}

/// Batch-size sweep of the Duet estimator; prints a table and emits the
/// results as a single JSON line (parsed by tooling / CI).
void RunInferenceSweep(const Flags& flags, double scale) {
  const data::Table t = MakeCensus(scale);
  // Serving-scale architecture (paper-scale nets reach {512,...,1024} on
  // DMV): large enough that per-query weight traffic dominates at batch 1,
  // which is exactly what batching amortizes. --sweep_hidden overrides.
  core::DuetModelOptions opt;
  const int64_t hidden = flags.GetInt("sweep_hidden", 256);
  opt.hidden_sizes = {hidden, hidden};
  opt.residual = true;
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);

  const int64_t num_queries = flags.GetInt("sweep_queries", 512);
  const double min_seconds = flags.GetDouble("sweep_min_seconds", 0.4);
  query::WorkloadSpec spec;
  spec.seed = 1234;
  query::WorkloadGenerator gen(t, spec);
  Rng rng(1234);
  std::vector<query::Query> queries;
  queries.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) queries.push_back(gen.GenerateQuery(rng));

  // Single-thread measurement: the speedup below is pure batching
  // (amortized weight traffic, fused kernels, arena reuse), not parallelism.
  // --sweep_scalar=1 reruns the sweep on the scalar reference kernels,
  // isolating the tiled-GEMM contribution.
  const bool scalar = flags.GetBool("sweep_scalar", false);
  tensor::SetUseScalarKernels(scalar);
  ThreadPool::SetGlobalThreads(1);
  const std::vector<int64_t> batch_sizes = {1, 8, 64, 512};
  std::vector<double> qps(batch_sizes.size(), 0.0);
  std::printf("\nInference throughput sweep (Duet estimator, 1 thread, %lld queries%s)\n",
              static_cast<long long>(num_queries), scalar ? ", scalar kernels" : "");
  std::printf("%-8s %14s %10s\n", "batch", "queries/s", "speedup");
  for (size_t i = 0; i < batch_sizes.size(); ++i) {
    qps[i] = MeasureBatchedQps(est, queries, batch_sizes[i], min_seconds);
    std::printf("%-8lld %14.1f %9.2fx\n", static_cast<long long>(batch_sizes[i]), qps[i],
                qps[i] / qps[0]);
  }

  // Batch-1 phase split: before the masked-weight cache the forward phase
  // (dominated by per-call W o M materialization) was ~95% of latency; the
  // cache is judged by how far this share drops.
  model.phase_times().Clear();
  const int64_t phase_reps = std::max<int64_t>(64, num_queries);
  for (int64_t i = 0; i < phase_reps; ++i) {
    est.EstimateSelectivity(queries[static_cast<size_t>(i) % queries.size()]);
  }
  const core::PhaseTimes phases = model.phase_times();
  const double total_ms = phases.total_ms() > 0.0 ? phases.total_ms() : 1.0;
  const double forward_share = phases.forward_ms / total_ms;
  std::printf("batch-1 phase split: encode %.1f%%  forward %.1f%%  post %.1f%%\n",
              100.0 * phases.encode_ms / total_ms, 100.0 * forward_share,
              100.0 * phases.post_ms / total_ms);

  // Multi-thread serving sweep: the same chunk protocol through the sharded
  // ServingEngine, one process pool size per row (the engine shards on the
  // process pool). Worker threads run tensor ops serially (shard = unit of
  // parallelism), so speedup here is pure cross-query parallelism.
  const std::vector<unsigned> worker_counts = {1, 2, 4, 8};
  // serving_qps[w][b]
  std::vector<std::vector<double>> serving_qps(
      worker_counts.size(), std::vector<double>(batch_sizes.size(), 0.0));
  bool bitwise_equal = true;
  std::printf("\nServing sweep (sharded ServingEngine, %lld queries)\n",
              static_cast<long long>(num_queries));
  std::printf("%-8s %-8s %14s %16s\n", "workers", "batch", "queries/s", "vs 1 worker");
  for (size_t w = 0; w < worker_counts.size(); ++w) {
    ThreadPool::SetGlobalThreads(worker_counts[w]);
    serve::ServingOptions sopt;
    sopt.min_shard = 8;
    serve::ServingEngine engine(est, sopt);
    // Determinism check: sharded result must be bitwise equal to the
    // single-thread batch path.
    const std::vector<double> sharded = engine.EstimateBatch(queries);
    const std::vector<double> reference = est.EstimateSelectivityBatch(queries);
    if (sharded != reference) bitwise_equal = false;
    for (size_t b = 0; b < batch_sizes.size(); ++b) {
      serving_qps[w][b] = MeasureServingQps(engine, queries, batch_sizes[b], min_seconds);
      std::printf("%-8u %-8lld %14.1f %15.2fx\n", worker_counts[w],
                  static_cast<long long>(batch_sizes[b]), serving_qps[w][b],
                  serving_qps[w][b] / serving_qps[0][b]);
    }
  }
  std::printf("sharded vs single-thread batch: %s\n",
              bitwise_equal ? "bitwise equal" : "MISMATCH");
  ThreadPool::SetGlobalThreads(1);

  // Packed-weight backend sweep (single thread, like the batch sweep):
  // batch-1 is the weight-traffic-bound regime the backends target; batch
  // 64 shows what the amortized GEMM path pays for each format. Accuracy is
  // tracked as the median q-error on a seeded labeled workload, reported as
  // a delta against the fp32 dense path (CSR must be exactly 0 — it is a
  // bitwise backend; int8 is quantization-bounded).
  struct BackendRow {
    tensor::WeightBackend backend;
    double qps_b1 = 0.0;
    double qps_b64 = 0.0;
    uint64_t packed_bytes = 0;
    double median_qerror = 0.0;
    double qerror_delta = 0.0;  // (median - dense median) / dense median
  };
  // The packed CSR/int8 kernels have no scalar-reference variant, so make
  // sure the dense row is measured on the same SIMD kernels even when
  // --sweep_scalar=1 reran the batch sweep on the scalar reference —
  // otherwise the per-backend comparison would mostly measure scalar vs
  // SIMD instead of the weight formats.
  tensor::SetUseScalarKernels(false);

  // --backend: comma-separated subset of dense,csr,int8,int4, swept in
  // the given order. Unknown names are a hard error — a typo must not let
  // the smoke run silently skip every backend code path.
  const std::string backend_list = flags.GetString("backend", "dense,csr,int8,int4");
  std::vector<tensor::WeightBackend> backends;
  for (size_t pos = 0; pos <= backend_list.size();) {
    size_t comma = backend_list.find(',', pos);
    if (comma == std::string::npos) comma = backend_list.size();
    const std::string token = backend_list.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    tensor::WeightBackend parsed;
    if (!tensor::ParseWeightBackend(token, &parsed)) {
      std::fprintf(stderr,
                   "unknown --backend entry '%s' (expected dense,csr,int8,int4)\n",
                   token.c_str());
      std::exit(1);  // a typo must fail the run, not skip the sweep
    }
    backends.push_back(parsed);
  }
  if (backends.empty()) {
    std::fprintf(stderr, "--backend selected no backends (got '%s')\n", backend_list.c_str());
    std::exit(1);  // same policy as unknown tokens: no silent skip
  }

  query::WorkloadSpec lspec;
  lspec.num_queries = static_cast<int>(num_queries);
  lspec.seed = 1234;
  const query::Workload labeled = query::WorkloadGenerator(t, lspec).Generate();
  std::vector<query::Query> lqueries;
  lqueries.reserve(labeled.size());
  for (const auto& lq : labeled) lqueries.push_back(lq.query);
  const double rows_n = static_cast<double>(t.num_rows());

  // The backend sweep runs its own model at paper-serving width
  // (--backend_hidden, default 512 — the DMV nets reach {512,...,1024}).
  // At the batch sweep's default 2x256 the whole dense W o M fits in cache
  // and batch-1 is compute-bound, which is not the regime the packed
  // backends target: the weight-traffic levers only engage once the
  // packed weights outgrow cache.
  core::DuetModelOptions bopt;
  const int64_t backend_hidden = flags.GetInt("backend_hidden", 512);
  bopt.hidden_sizes = {backend_hidden, backend_hidden};
  bopt.residual = true;
  core::DuetModel bmodel(t, bopt);
  core::DuetEstimator best(bmodel);

  std::vector<BackendRow> brows;
  for (tensor::WeightBackend backend : backends) {
    BackendRow row;
    row.backend = backend;
    bmodel.SetInferenceBackend(backend);
    row.qps_b1 = MeasureBatchedQps(best, queries, 1, min_seconds);
    row.qps_b64 = MeasureBatchedQps(best, queries, 64, min_seconds);
    row.packed_bytes = bmodel.CachedBytes();
    const std::vector<double> sels = best.EstimateSelectivityBatch(lqueries);
    std::vector<double> qerrs;
    qerrs.reserve(sels.size());
    for (size_t i = 0; i < sels.size(); ++i) {
      const double card =
          std::max(1.0, query::CardinalityEstimator::ClampSelectivity(sels[i]) * rows_n);
      qerrs.push_back(query::QError(card, static_cast<double>(labeled[i].cardinality)));
    }
    std::sort(qerrs.begin(), qerrs.end());
    row.median_qerror = qerrs.empty() ? 0.0 : qerrs[qerrs.size() / 2];
    brows.push_back(row);
  }

  // Deltas are anchored on the dense (fp32) row wherever it ran in the
  // sweep order; without a dense row there is no reference and the field is
  // omitted from the JSON below.
  bool have_dense = false;
  double dense_median = 0.0;
  for (const BackendRow& row : brows) {
    if (row.backend == tensor::WeightBackend::kDenseF32) {
      have_dense = true;
      dense_median = row.median_qerror;
      break;
    }
  }
  std::printf("\nPacked-weight backend sweep (1 thread, %lld queries, 2x%lld ResMADE)\n",
              static_cast<long long>(num_queries), static_cast<long long>(backend_hidden));
  std::printf("%-8s %14s %14s %12s %14s\n", "backend", "batch-1 q/s", "batch-64 q/s",
              "packed KiB", "qerr delta");
  for (BackendRow& row : brows) {
    row.qerror_delta = have_dense && dense_median > 0.0
                           ? (row.median_qerror - dense_median) / dense_median
                           : 0.0;
    std::printf("%-8s %14.1f %14.1f %12.1f ", tensor::WeightBackendName(row.backend),
                row.qps_b1, row.qps_b64, static_cast<double>(row.packed_bytes) / 1024.0);
    if (have_dense) {
      std::printf("%+13.4f%%\n", 100.0 * row.qerror_delta);
    } else {
      std::printf("%14s\n", "n/a");
    }
  }
  std::printf("plan cache: %llu compiles in %.1f ms, %llu hits\n",
              static_cast<unsigned long long>(bmodel.PlanInfo().compiles),
              static_cast<double>(best.PlanCompileMicros()) / 1000.0,
              static_cast<unsigned long long>(best.PlanCacheHits()));

  // Cross-request fusion A/B: the same stream of batch-1 async submissions
  // through the micro-batcher with GEMV->GEMM fusion on vs off, on the
  // weight-traffic-bound backend-sweep model (batch-1 is exactly the regime
  // fusion rescues: concurrent singleton requests coalesce into one GEMM
  // that re-reads the packed weights once per group instead of once per
  // query). The two arms must be bitwise identical per request.
  // The engine serves the estimator's own backend, so the A/B sets dense
  // explicitly, and its engines shard on a 2-thread process pool.
  bmodel.SetInferenceBackend(tensor::WeightBackend::kDenseF32);
  ThreadPool::SetGlobalThreads(2);
  std::vector<double> fused_answers, unfused_answers;
  const double fused_qps = MeasureAsyncQps(best, queries, /*fuse=*/true, min_seconds,
                                           &fused_answers);
  const double unfused_qps = MeasureAsyncQps(best, queries, /*fuse=*/false, min_seconds,
                                             &unfused_answers);
  const bool fusion_bitwise = fused_answers == unfused_answers;
  const double fusion_speedup = unfused_qps > 0.0 ? fused_qps / unfused_qps : 0.0;
  std::printf("\nCross-request fusion A/B (async batch-1 submissions, 2 workers, dense)\n");
  std::printf("fused    %14.1f q/s\nunfused  %14.1f q/s\nfusion speedup %.2fx, "
              "per-request results %s\n",
              fused_qps, unfused_qps, fusion_speedup,
              fusion_bitwise ? "bitwise equal" : "MISMATCH");

  ThreadPool::SetGlobalThreads(0);
  tensor::SetUseScalarKernels(false);

  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"table3_throughput\",\"isa\":\"%s\",\"hw_threads\":%u,"
                "\"inference_sweep\":{\"estimator\":\"Duet\",\"threads\":1,\"results\":[",
                tensor::simd::ActiveIsaName(), std::thread::hardware_concurrency());
  std::string json = head;
  for (size_t i = 0; i < batch_sizes.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s{\"batch\":%lld,\"qps\":%.1f}", i == 0 ? "" : ",",
                  static_cast<long long>(batch_sizes[i]), qps[i]);
    json += buf;
  }
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "],\"speedup_batch64_vs_1\":%.2f,\"forward_share_batch1\":%.3f}",
                qps[2] / qps[0], forward_share);
  json += tail;
  json += ",\"serving_sweep\":{\"estimator\":\"Duet\",\"results\":[";
  bool first = true;
  for (size_t w = 0; w < worker_counts.size(); ++w) {
    for (size_t b = 0; b < batch_sizes.size(); ++b) {
      char buf[112];
      std::snprintf(buf, sizeof(buf), "%s{\"workers\":%u,\"batch\":%lld,\"qps\":%.1f}",
                    first ? "" : ",", worker_counts[w],
                    static_cast<long long>(batch_sizes[b]), serving_qps[w][b]);
      json += buf;
      first = false;
    }
  }
  char tail2[128];
  std::snprintf(tail2, sizeof(tail2),
                "],\"speedup_w4_vs_w1_batch64\":%.2f,\"sharded_bitwise_equal\":%s}",
                serving_qps[2][2] / serving_qps[0][2], bitwise_equal ? "true" : "false");
  json += tail2;
  // Backend sweep: one row per packed-weight backend. qerror_delta is
  // relative to the dense (fp32) median q-error; best_nondense_b1_speedup is
  // the best non-dense batch-1 throughput over dense (the ROADMAP's
  // weight-traffic lever, expected > 1 from CSR/int8).
  json += ",\"backend_sweep\":{\"results\":[";
  double dense_b1 = 0.0, best_nondense_b1 = 0.0;
  for (size_t i = 0; i < brows.size(); ++i) {
    const BackendRow& row = brows[i];
    if (row.backend == tensor::WeightBackend::kDenseF32) {
      dense_b1 = row.qps_b1;
    } else {
      best_nondense_b1 = std::max(best_nondense_b1, row.qps_b1);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"backend\":\"%s\",\"qps_batch1\":%.1f,"
                  "\"qps_batch64\":%.1f,\"packed_weight_bytes\":%llu,"
                  "\"median_qerror\":%.4f",
                  i == 0 ? "" : ",", tensor::WeightBackendName(row.backend), row.qps_b1,
                  row.qps_b64, static_cast<unsigned long long>(row.packed_bytes),
                  row.median_qerror);
    json += buf;
    if (have_dense) {  // no dense row in the sweep -> no delta reference
      std::snprintf(buf, sizeof(buf), ",\"qerror_delta_vs_dense\":%.6f", row.qerror_delta);
      json += buf;
    }
    json += "}";
  }
  char tail3[96];
  std::snprintf(tail3, sizeof(tail3), "],\"best_nondense_b1_speedup\":%.2f",
                dense_b1 > 0.0 ? best_nondense_b1 / dense_b1 : 0.0);
  json += tail3;
  std::snprintf(tail3, sizeof(tail3),
                ",\"plan_compile_micros\":%llu,\"plan_cache_hits\":%llu}",
                static_cast<unsigned long long>(best.PlanCompileMicros()),
                static_cast<unsigned long long>(best.PlanCacheHits()));
  json += tail3;
  // Fusion A/B: per-request bitwise identity is a correctness gate, so it
  // rides in the JSON where CI tooling can assert on it.
  char tail4[192];
  std::snprintf(tail4, sizeof(tail4),
                ",\"fusion_sweep\":{\"fused_qps\":%.1f,\"unfused_qps\":%.1f,"
                "\"fusion_b1_speedup\":%.2f,\"fusion_bitwise_equal\":%s}}",
                fused_qps, unfused_qps, fusion_speedup,
                fusion_bitwise ? "true" : "false");
  json += tail4;
  std::printf("%s\n", json.c_str());
}

/// Zero-downtime online-update sweep (--live_update): serve through a
/// ModelRegistry-backed engine while a background UpdateWorker fine-tunes
/// on served-traffic feedback and hot-swaps snapshots in. Reports sustained
/// live throughput against the steady state (the no-quiesce claim is a
/// measured ratio, not an assertion), the publish/swap latencies, the
/// update verdict counters and the median q-error before/after.
void RunLiveUpdateSweep(const Flags& flags, double scale) {
  const data::Table t = MakeCensus(scale);
  core::DuetModelOptions opt;
  const int64_t hidden = flags.GetInt("live_hidden", 128);
  opt.hidden_sizes = {hidden, hidden};
  opt.residual = true;
  auto model = std::make_unique<core::DuetModel>(t, opt);
  {
    // Briefly trained baseline: good enough to serve, with headroom for the
    // online updates to improve on.
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = 512;
    core::DuetTrainer(*model, topt).Train();
  }

  // Feedback stream: fresh random queries throughout (each update wave sees
  // queries the model was never tuned on — sustained drift), plus a fixed
  // eval workload for the before/after accuracy comparison.
  query::WorkloadSpec spec;
  spec.num_queries = static_cast<int>(flags.GetInt("live_queries", 768));
  spec.seed = 4321;
  const query::Workload feedback_wl = query::WorkloadGenerator(t, spec).Generate();
  query::WorkloadSpec eval_spec;
  eval_spec.num_queries = 128;
  eval_spec.seed = 4322;
  const query::Workload eval_wl = query::WorkloadGenerator(t, eval_spec).Generate();
  std::vector<query::Query> serve_queries;
  serve_queries.reserve(feedback_wl.size());
  for (const auto& lq : feedback_wl) serve_queries.push_back(lq.query);

  // One 2-thread process pool shared by the engine's shards and the
  // background fine-tune.
  ThreadPool::SetGlobalThreads(2);
  serve::ModelRegistry registry(std::move(model));  // dense fp32
  const double qerror_before = core::MedianQError(registry.Current()->model(), eval_wl);

  serve::ServingEngine engine(registry);

  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = flags.GetInt("live_min_feedback", 96);
  wopt.update.max_regression = 1.1;
  wopt.update.finetune.qerror_threshold = 1.05;
  wopt.update.finetune.epochs = 1;
  wopt.update.finetune.batch_size = 512;
  wopt.update.finetune.expand = 2;
  // Bounded round cost: each background epoch visits at most this many
  // anchors, so a fine-tune round costs the same on any table size — the
  // knob that keeps the update duty cycle (and the live/steady throughput
  // ratio) under control on small machines.
  wopt.update.finetune.max_anchor_rows = flags.GetInt("live_anchor_rows", 384);
  serve::UpdateWorker worker(registry, wopt);

  // Steady state: no update worker attached, no feedback flowing. Measured
  // over a window comparable to the live phase — the ratio below compares
  // two long averages, not a long average against a burst.
  const double min_seconds = flags.GetDouble("sweep_min_seconds", 0.4);
  const double steady_seconds =
      std::max(min_seconds, flags.GetDouble("live_min_seconds", 24.0 * scale) / 4.0);
  const int64_t batch = 64;
  const double steady_qps = MeasureServingQps(engine, serve_queries, batch, steady_seconds);

  // Live phase: same serving loop while the background worker clones,
  // tunes, validates and publishes. Feedback is fed in waves of
  // min_feedback fresh pairs — one wave per completed round — until the
  // target number of snapshots has been published; serving never pauses.
  const int64_t target_publishes = flags.GetInt("live_publishes", 3);
  const double live_min_seconds =
      std::max(0.5, flags.GetDouble("live_min_seconds", 24.0 * scale));
  const double live_max_seconds = flags.GetDouble("live_max_seconds", live_min_seconds * 6 + 60.0);
  std::vector<std::vector<query::Query>> chunks;
  for (size_t begin = 0; begin < serve_queries.size(); begin += static_cast<size_t>(batch)) {
    const size_t end = std::min(serve_queries.size(), begin + static_cast<size_t>(batch));
    chunks.emplace_back(serve_queries.begin() + static_cast<int64_t>(begin),
                        serve_queries.begin() + static_cast<int64_t>(end));
  }
  size_t feedback_cursor = 0;
  auto feed_wave = [&] {
    for (int64_t i = 0; i < wopt.min_feedback && feedback_cursor < feedback_wl.size();
         ++i, ++feedback_cursor) {
      const query::LabeledQuery& lq = feedback_wl[feedback_cursor];
      engine.ReportObserved(lq.query, static_cast<double>(lq.cardinality));
    }
  };
  engine.AttachUpdateWorker(&worker);
  worker.Start();
  Timer live_timer;
  int64_t served = 0;
  uint64_t waves_fed = 1;
  feed_wave();
  for (;;) {
    for (const auto& chunk : chunks) {
      engine.EstimateBatch(chunk);
      served += static_cast<int64_t>(chunk.size());
    }
    const serve::UpdateWorkerStats ws = worker.stats();
    // One fresh wave per completed round until enough snapshots shipped.
    if (ws.rounds >= waves_fed && ws.published < static_cast<uint64_t>(target_publishes)) {
      ++waves_fed;
      feed_wave();
    }
    const double elapsed = live_timer.Seconds();
    if (ws.published >= static_cast<uint64_t>(target_publishes) && elapsed >= live_min_seconds) {
      break;
    }
    // A starved run with the feedback stream exhausted and every fed wave
    // consumed can never publish again — stop instead of spinning out the
    // rest of live_max_seconds.
    if (ws.published < static_cast<uint64_t>(target_publishes) &&
        feedback_cursor >= feedback_wl.size() && ws.rounds >= waves_fed) {
      break;
    }
    if (elapsed > live_max_seconds) break;  // cap a gate-starved run
  }
  const double live_seconds = live_timer.Seconds();
  const double live_qps = static_cast<double>(served) / live_seconds;
  worker.Stop();
  // The worker (declared after the engine) is destroyed first; detach so
  // the engine never holds a dangling feedback pointer during teardown.
  engine.AttachUpdateWorker(nullptr);
  ThreadPool::SetGlobalThreads(0);

  const serve::UpdateWorkerStats ws = worker.stats();
  const serve::RegistryStats rs = registry.stats();
  const serve::ServingStats es = engine.stats();
  const double qerror_after = core::MedianQError(registry.Current()->model(), eval_wl);
  const double ratio = steady_qps > 0.0 ? live_qps / steady_qps : 0.0;

  std::printf("\nLive-update sweep (registry-backed serving, 2x%lld ResMADE, batch %lld)\n",
              static_cast<long long>(hidden), static_cast<long long>(batch));
  std::printf("steady-state    %14.1f q/s\n", steady_qps);
  std::printf("during updates  %14.1f q/s  (%.1f%% of steady, %.1fs window)\n", live_qps,
              100.0 * ratio, live_seconds);
  std::printf("updates         %llu published, %llu rolled back, %llu skipped "
              "(%llu feedback pairs)\n",
              static_cast<unsigned long long>(ws.published),
              static_cast<unsigned long long>(ws.rolled_back),
              static_cast<unsigned long long>(ws.skipped),
              static_cast<unsigned long long>(ws.feedback_received));
  std::printf("swap latency    %.1f us (pointer swap), %.1f ms publish end-to-end, "
              "last round %.2fs\n",
              rs.last_swap_micros, rs.last_publish_micros / 1000.0, ws.last_round_seconds);
  std::printf("median q-error  %.3f -> %.3f on the eval workload (snapshot %llu, "
              "%llu swaps seen by traffic)\n",
              qerror_before, qerror_after,
              static_cast<unsigned long long>(rs.current_id),
              static_cast<unsigned long long>(es.snapshot_swaps));

  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"live_update\",\"steady_qps\":%.1f,\"live_qps\":%.1f,"
                "\"qps_ratio\":%.3f,\"updates_published\":%llu,"
                "\"updates_rolled_back\":%llu,\"updates_skipped\":%llu,"
                "\"feedback_pairs\":%llu,\"snapshot_swaps\":%llu,"
                "\"swap_micros_last\":%.1f,\"publish_micros_last\":%.1f,"
                "\"round_seconds_last\":%.3f,\"qerror_before\":%.4f,"
                "\"qerror_after\":%.4f}",
                steady_qps, live_qps, ratio,
                static_cast<unsigned long long>(ws.published),
                static_cast<unsigned long long>(ws.rolled_back),
                static_cast<unsigned long long>(ws.skipped),
                static_cast<unsigned long long>(ws.feedback_received),
                static_cast<unsigned long long>(es.snapshot_swaps), rs.last_swap_micros,
                rs.last_publish_micros, ws.last_round_seconds, qerror_before, qerror_after);
  std::printf("%s\n", buf);
}

/// Overload sweep (--overload): admission control and graceful degradation
/// under saturation (docs/resilience.md §2). The sweep self-calibrates: it
/// first measures the engine's closed-loop async capacity, then drives a
/// paced open-loop stream at ~0.5x capacity (steady) and ~4x capacity
/// (overload) through a fresh engine per phase with a bounded queue
/// (2 x max_batch) and per-query deadlines. Under overload the bounded
/// queue must shed rather than build an unbounded backlog, shed/expired
/// queries get flagged fallback answers, and the admitted p99 stays within
/// ~2x of the steady-state p99 (the no-collapse claim, reported not
/// asserted).
void RunOverloadSweep(const Flags& flags, double scale) {
  const data::Table t = MakeCensus(scale);
  core::DuetModelOptions opt;
  const int64_t hidden = flags.GetInt("overload_hidden", 128);
  opt.hidden_sizes = {hidden, hidden};
  opt.residual = true;
  core::DuetModel model(t, opt);
  core::DuetEstimator est(model);
  baselines::IndependenceEstimator fallback(t);

  query::WorkloadSpec spec;
  spec.seed = 1234;
  query::WorkloadGenerator gen(t, spec);
  Rng rng(1234);
  std::vector<query::Query> queries;
  const int64_t num_queries = flags.GetInt("sweep_queries", 512);
  queries.reserve(static_cast<size_t>(num_queries));
  for (int64_t i = 0; i < num_queries; ++i) queries.push_back(gen.GenerateQuery(rng));

  const unsigned workers = static_cast<unsigned>(flags.GetInt("overload_workers", 2));
  const int64_t max_batch = 64;
  const double phase_seconds =
      std::max(0.5, flags.GetDouble("overload_seconds", 4.0 * scale));

  ThreadPool::SetGlobalThreads(workers);  // engine shards run on the process pool

  // Calibration: closed-loop async capacity with an unbounded queue and no
  // deadlines — the saturation rate the offered loads are scaled from.
  double capacity_qps = 0.0;
  {
    serve::ServingOptions sopt;
    sopt.max_batch = max_batch;
    sopt.max_wait_us = 1000;
    serve::ServingEngine engine(est, sopt);
    std::vector<serve::ServingEngine::Future> warm;
    for (const auto& q : queries) warm.push_back(engine.Submit(q));
    for (auto& f : warm) f.Wait();
    const int64_t n = 4096;
    std::vector<serve::ServingEngine::Future> futures;
    futures.reserve(static_cast<size_t>(n));
    Timer timer;
    for (int64_t i = 0; i < n; ++i) {
      futures.push_back(engine.Submit(queries[static_cast<size_t>(i) % queries.size()]));
    }
    for (auto& f : futures) f.Wait();
    capacity_qps = static_cast<double>(n) / timer.Seconds();
  }

  // One paced open-loop phase: fresh engine, bounded queue, per-query
  // deadlines; offered load = `rate` queries/sec for `phase_seconds`.
  struct PhaseResult {
    double offered_qps = 0.0;
    double achieved_qps = 0.0;
    uint64_t submitted = 0;
    serve::ServingStats stats;
  };
  auto run_phase = [&](double rate, int64_t deadline_us) {
    PhaseResult r;
    r.offered_qps = rate;
    serve::ServingOptions sopt;
    sopt.max_batch = max_batch;
    sopt.max_wait_us = 1000;
    sopt.max_queue = 2 * max_batch;  // bounded: overload must shed, not queue
    sopt.default_deadline_us = deadline_us;
    serve::ServingEngine engine(est, sopt);
    engine.AttachFallback(&fallback);
    // Bound the future backlog so a fast machine cannot blow memory.
    const uint64_t cap = static_cast<uint64_t>(
        std::min(500000.0, std::max(1000.0, rate * phase_seconds)));
    std::vector<serve::ServingEngine::Future> futures;
    futures.reserve(cap);
    Timer timer;
    uint64_t submitted = 0;
    while (timer.Seconds() < phase_seconds && submitted < cap) {
      // Pace: keep cumulative submissions at rate * elapsed.
      const auto target = static_cast<uint64_t>(rate * timer.Seconds());
      while (submitted < target && submitted < cap) {
        futures.push_back(
            engine.Submit(queries[static_cast<size_t>(submitted) % queries.size()]));
        ++submitted;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& f : futures) f.Wait();
    const double elapsed = timer.Seconds();
    r.submitted = submitted;
    r.achieved_qps = static_cast<double>(submitted) / elapsed;
    r.stats = engine.stats();
    return r;
  };

  // Steady phase first (generous deadline: it should never fire), so the
  // overload deadline can be anchored on the measured steady p99.
  const PhaseResult steady = run_phase(0.5 * capacity_qps, /*deadline_us=*/0);
  const int64_t deadline_us = std::max<int64_t>(
      2000, static_cast<int64_t>(1.5 * static_cast<double>(steady.stats.latency_p99_us)));
  const PhaseResult overload = run_phase(4.0 * capacity_qps, deadline_us);

  ThreadPool::SetGlobalThreads(0);

  const double p99_ratio =
      steady.stats.latency_p99_us > 0
          ? static_cast<double>(overload.stats.latency_p99_us) /
                static_cast<double>(steady.stats.latency_p99_us)
          : 0.0;
  const double shed_share =
      overload.submitted > 0
          ? static_cast<double>(overload.stats.shed) / static_cast<double>(overload.submitted)
          : 0.0;

  std::printf("\nOverload sweep (admission control, %u workers, 2x%lld ResMADE, "
              "queue %lld, deadline %lld us)\n",
              workers, static_cast<long long>(hidden), static_cast<long long>(2 * max_batch),
              static_cast<long long>(deadline_us));
  std::printf("capacity (closed loop)  %14.1f q/s\n", capacity_qps);
  std::printf("%-10s %12s %12s %10s %10s %10s %9s %9s %9s\n", "phase", "offered q/s",
              "served q/s", "shed", "expired", "fallback", "p50 us", "p99 us", "p999 us");
  auto print_phase = [](const char* name, const PhaseResult& r) {
    std::printf("%-10s %12.1f %12.1f %10llu %10llu %10llu %9llu %9llu %9llu\n", name,
                r.offered_qps, r.achieved_qps,
                static_cast<unsigned long long>(r.stats.shed),
                static_cast<unsigned long long>(r.stats.deadline_missed),
                static_cast<unsigned long long>(r.stats.fallback_served),
                static_cast<unsigned long long>(r.stats.latency_p50_us),
                static_cast<unsigned long long>(r.stats.latency_p99_us),
                static_cast<unsigned long long>(r.stats.latency_p999_us));
  };
  print_phase("steady", steady);
  print_phase("overload", overload);
  std::printf("overload: %.1f%% of offered load shed, admitted p99 %.2fx steady p99\n",
              100.0 * shed_share, p99_ratio);

  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"overload\",\"capacity_qps\":%.1f,\"queue_limit\":%lld,"
      "\"deadline_us\":%lld,\"steady\":{\"offered_qps\":%.1f,\"achieved_qps\":%.1f,"
      "\"shed\":%llu,\"deadline_missed\":%llu,\"p50_us\":%llu,\"p99_us\":%llu,"
      "\"p999_us\":%llu},"
      "\"overload\":{\"offered_qps\":%.1f,\"achieved_qps\":%.1f,\"shed\":%llu,"
      "\"deadline_missed\":%llu,\"fallback_served\":%llu,\"p50_us\":%llu,"
      "\"p99_us\":%llu,\"p999_us\":%llu},\"shed_share\":%.4f,\"admitted_p99_ratio\":%.3f}",
      capacity_qps, static_cast<long long>(2 * max_batch),
      static_cast<long long>(deadline_us), steady.offered_qps, steady.achieved_qps,
      static_cast<unsigned long long>(steady.stats.shed),
      static_cast<unsigned long long>(steady.stats.deadline_missed),
      static_cast<unsigned long long>(steady.stats.latency_p50_us),
      static_cast<unsigned long long>(steady.stats.latency_p99_us),
      static_cast<unsigned long long>(steady.stats.latency_p999_us), overload.offered_qps,
      overload.achieved_qps, static_cast<unsigned long long>(overload.stats.shed),
      static_cast<unsigned long long>(overload.stats.deadline_missed),
      static_cast<unsigned long long>(overload.stats.fallback_served),
      static_cast<unsigned long long>(overload.stats.latency_p50_us),
      static_cast<unsigned long long>(overload.stats.latency_p99_us),
      static_cast<unsigned long long>(overload.stats.latency_p999_us), shed_share, p99_ratio);
  std::printf("%s\n", buf);
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv);
  const double scale = Flags::ScaleFactor();
  const std::string datasets = flags.GetString("datasets", "census,kdd,dmv");
  std::printf("Table III reproduction: training throughput (tuples/s)\n");

  std::vector<Row> rows;
  if (datasets.find("census") != std::string::npos) {
    rows.push_back(RunDataset(MakeCensus(scale), flags.GetInt("batch", 128), 4));
  }
  if (datasets.find("kdd") != std::string::npos) {
    // UAE at its paper-scale sample count: the memory model reports OOM.
    rows.push_back(RunDataset(MakeKdd(scale), flags.GetInt("batch", 128), 200));
  }
  if (datasets.find("dmv") != std::string::npos) {
    rows.push_back(RunDataset(MakeDmv(scale), flags.GetInt("batch", 256), 4));
  }

  std::printf("\n%-10s", "estimator");
  for (const Row& r : rows) std::printf(" %14s", r.dataset.c_str());
  std::printf("\n");
  auto print_line = [&](const char* name, auto getter, auto oom_getter) {
    std::printf("%-10s", name);
    for (const Row& r : rows) {
      if (oom_getter(r)) {
        std::printf(" %14s", "OOM");
      } else {
        std::printf(" %14.1f", getter(r));
      }
    }
    std::printf("\n");
  };
  print_line("Naru", [](const Row& r) { return r.naru; }, [](const Row&) { return false; });
  print_line("UAE", [](const Row& r) { return r.uae; }, [](const Row& r) { return r.uae_oom; });
  print_line("DuetD", [](const Row& r) { return r.duetd; }, [](const Row&) { return false; });
  print_line("Duet", [](const Row& r) { return r.duet; }, [](const Row&) { return false; });

  if (flags.GetBool("sweep", true)) RunInferenceSweep(flags, scale);
  if (flags.GetBool("live_update", false)) RunLiveUpdateSweep(flags, scale);
  if (flags.GetBool("overload", false)) RunOverloadSweep(flags, scale);
  return 0;
}
