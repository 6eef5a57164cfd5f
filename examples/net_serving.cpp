// A two-node Duet deployment over loopback (docs/networking.md).
//
// One process plays three roles. A PRIMARY node trains a Duet model, holds
// it in a serve::ModelRegistry and serves it through a net::NetServer
// speaking the DuetRpc binary protocol. A REPLICA node runs its own
// NetServer over a serve::ModelZoo and receives the primary's snapshot via
// checksummed snapshot replication (net::ReplicateSnapshot) — validate,
// mmap-load, hot-swap, no quiesce. A CLIENT talks to both nodes with
// net::RpcClient and measures q-error strictly over the wire.
//
// The deployment story: the primary's background serve::UpdateWorker
// fine-tunes on observed cardinalities and hot-swaps an improved snapshot;
// one more replication round ships the improvement to the replica. The
// final table shows before/after median q-error on BOTH nodes, and that
// primary and replica answers are bitwise-identical at every stage — the
// replica is a real copy, not an approximation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/stats.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "query/workload.h"
#include "serve/model_registry.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"

int main() {
  using namespace duet;
  data::Table table = data::CensusLike(/*rows=*/6000, /*seed=*/42);
  const double rows = static_cast<double>(table.num_rows());

  // Skewed training workload vs. drifted serving workload (paper Sec. V-A2),
  // same setup as examples/workload_drift.cpp — but served over TCP here.
  query::WorkloadSpec train_spec;
  train_spec.num_queries = 800;
  train_spec.seed = 42;
  train_spec.gamma_num_predicates = true;
  train_spec.bounded_column = table.LargestNdvColumn();
  const query::Workload train_wl = query::WorkloadGenerator(table, train_spec).Generate();

  query::WorkloadSpec drift_spec;
  drift_spec.num_queries = 240;
  drift_spec.seed = 1234;
  const query::Workload drift_wl = query::WorkloadGenerator(table, drift_spec).Generate();
  std::vector<query::Query> drift_queries;
  drift_queries.reserve(drift_wl.size());
  for (const auto& lq : drift_wl) drift_queries.push_back(lq.query);

  // --- Primary node: train -> registry -> engine -> NetServer ---
  core::DuetModelOptions mopt;
  mopt.hidden_sizes = {64, 64};
  mopt.residual = true;
  auto model = std::make_unique<core::DuetModel>(table, mopt);
  core::TrainOptions topt;
  topt.epochs = 4;
  topt.batch_size = 256;
  topt.train_workload = &train_wl;
  topt.lambda = 0.1f;
  core::DuetTrainer(*model, topt).Train();

  serve::ModelRegistry registry(std::move(model));
  serve::ServingEngine primary_engine(registry);
  net::NetServer primary(primary_engine);  // ephemeral loopback port
  primary.AttachSnapshotSource(&registry);
  net::WireStatus st = primary.Start();
  if (!st.ok) {
    std::fprintf(stderr, "primary start failed: %s\n", st.error.c_str());
    return 1;
  }

  // --- Replica node: empty zoo -> engine -> its own NetServer ---
  serve::ModelZoo zoo;
  serve::ServingEngine replica_engine(zoo);
  net::NetServer replica(replica_engine);
  st = replica.Start();
  if (!st.ok) {
    std::fprintf(stderr, "replica start failed: %s\n", st.error.c_str());
    return 1;
  }

  std::printf("Two-node serving over DuetRpc (loopback)\n");
  std::printf("  primary  127.0.0.1:%u  (registry, snapshot source)\n", primary.port());
  std::printf("  replica  127.0.0.1:%u  (zoo, replication target)\n\n", replica.port());

  // --- Ship snapshot #1 primary -> replica ---
  char path_buf[128];
  std::snprintf(path_buf, sizeof(path_buf), "/tmp/duet_example_replica.%d.artifact",
                static_cast<int>(::getpid()));
  const std::string replica_path = path_buf;
  net::RpcClient repl_link;
  st = repl_link.Connect("127.0.0.1", primary.port());
  if (!st.ok) {
    std::fprintf(stderr, "replication link failed: %s\n", st.error.c_str());
    return 1;
  }
  st = net::ReplicateSnapshot(repl_link, zoo, "census", replica_path);
  if (!st.ok) {
    std::fprintf(stderr, "replication failed: %s\n", st.error.c_str());
    return 1;
  }
  std::printf("replicated snapshot %llu -> replica (checksummed stream ok)\n\n",
              static_cast<unsigned long long>(registry.stats().current_id));

  // --- Client: measure q-error over the wire on both nodes ---
  net::RpcClient to_primary, to_replica;
  if (!to_primary.Connect("127.0.0.1", primary.port()).ok ||
      !to_replica.Connect("127.0.0.1", replica.port()).ok) {
    std::fprintf(stderr, "client connect failed\n");
    return 1;
  }
  auto wire_qerror = [&](net::RpcClient& client, const std::string& key,
                         std::vector<serve::Estimate>* raw) {
    std::vector<serve::Estimate> out;
    const net::WireStatus rs = client.EstimateBatch(key, drift_queries, 0, &out);
    if (!rs.ok) {
      std::fprintf(stderr, "wire estimate failed: %s\n", rs.error.c_str());
      std::exit(1);
    }
    std::vector<double> qerrs;
    qerrs.reserve(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      const double est = std::max(1.0, out[i].selectivity * rows);
      qerrs.push_back(query::QError(est, static_cast<double>(drift_wl[i].cardinality)));
    }
    if (raw) *raw = std::move(out);
    return ErrorSummary::FromValues(qerrs);
  };
  auto bitwise_equal = [](const std::vector<serve::Estimate>& a,
                          const std::vector<serve::Estimate>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].selectivity != b[i].selectivity) return false;
    }
    return true;
  };

  std::vector<serve::Estimate> p_raw, r_raw;
  const ErrorSummary p_before = wire_qerror(to_primary, "", &p_raw);
  const ErrorSummary r_before = wire_qerror(to_replica, "census", &r_raw);
  std::printf("drifted workload, snapshot #1 (over the wire):\n");
  std::printf("  primary  median %.2f  p99 %.2f\n", p_before.median, p_before.p99);
  std::printf("  replica  median %.2f  p99 %.2f   bitwise equal to primary: %s\n\n",
              r_before.median, r_before.p99, bitwise_equal(p_raw, r_raw) ? "yes" : "NO");

  // --- Primary fine-tunes in the background on observed cardinalities ---
  serve::UpdateWorkerOptions wopt;
  wopt.min_feedback = 128;
  wopt.update.finetune.qerror_threshold = 1.2;
  wopt.update.finetune.epochs = 2;
  wopt.update.finetune.max_anchor_rows = 1024;
  wopt.update.max_regression = 1.1;
  serve::UpdateWorker worker(registry, wopt);
  worker.Start();
  primary_engine.AttachUpdateWorker(&worker);
  for (const auto& lq : drift_wl) {
    primary_engine.ReportObserved(lq.query, static_cast<double>(lq.cardinality));
  }
  for (int i = 0; i < 600; ++i) {  // serve while the worker adapts
    to_primary.EstimateBatch("", drift_queries, 0, &p_raw);
    if (worker.stats().rounds > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  worker.Stop();
  primary_engine.AttachUpdateWorker(nullptr);
  const serve::UpdateWorkerStats ws = worker.stats();
  std::printf("update worker: %llu published, %llu rolled back (holdout %.2f -> %.2f)\n",
              static_cast<unsigned long long>(ws.published),
              static_cast<unsigned long long>(ws.rolled_back), ws.last_holdout_before,
              ws.last_holdout_after);

  // --- One more replication round ships the fine-tuned snapshot ---
  st = net::ReplicateSnapshot(repl_link, zoo, "census", replica_path);
  if (!st.ok) {
    std::fprintf(stderr, "re-replication failed: %s\n", st.error.c_str());
    return 1;
  }
  std::printf("re-replicated snapshot %llu -> replica (hot-swapped, no quiesce)\n\n",
              static_cast<unsigned long long>(registry.stats().current_id));

  const ErrorSummary p_after = wire_qerror(to_primary, "", &p_raw);
  const ErrorSummary r_after = wire_qerror(to_replica, "census", &r_raw);
  std::printf("drifted workload, snapshot #%llu (over the wire):\n",
              static_cast<unsigned long long>(registry.stats().current_id));
  std::printf("  primary  median %.2f -> %.2f\n", p_before.median, p_after.median);
  std::printf("  replica  median %.2f -> %.2f   bitwise equal to primary: %s\n",
              r_before.median, r_after.median, bitwise_equal(p_raw, r_raw) ? "yes" : "NO");

  const net::NetStats ps = primary.stats();
  std::printf("\nprimary wire stats: %llu frames in, %llu queries, %llu snapshot streams "
              "(%llu bytes shipped), %llu protocol errors\n",
              static_cast<unsigned long long>(ps.frames_in),
              static_cast<unsigned long long>(ps.queries),
              static_cast<unsigned long long>(ps.snapshot_streams),
              static_cast<unsigned long long>(ps.snapshot_bytes_sent),
              static_cast<unsigned long long>(ps.protocol_errors));
  std::printf("\nExpected: after the second replication round both nodes move together\n"
              "(the fine-tuned snapshot improves or holds the drifted median), and\n"
              "the replica's answers stay bitwise-identical to the primary's at\n"
              "every stage — replication ships the exact snapshot, not a retrained\n"
              "approximation.\n");

  to_primary.Close();
  to_replica.Close();
  repl_link.Close();
  replica.Stop();
  primary.Stop();
  ::unlink(replica_path.c_str());
  ::unlink((replica_path + ".fetch").c_str());
  return 0;
}
