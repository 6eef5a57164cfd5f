// Network front-end benchmark (docs/networking.md, docs/benchmarks.md):
// what does putting the serving engine behind the DuetRpc epoll front-end
// cost, and how does wire-level batching compose with the engine's
// cross-request fusion?
//
// Three measurements over one loopback NetServer:
//  1. In-process baselines: closed-loop async Submit/Wait at batch 1
//     (`clients` submitter threads — the apples-to-apples twin of the wire
//     sweep) and sync EstimateBatch at batch 64.
//  2. Closed-loop wire sweep: connections {1, 4, 16} x frame batch {1, 64},
//     each connection a thread running blocking EstimateBatch round trips;
//     per-request latency is recorded client-side into the same
//     log-bucketed histogram scheme the server and engine use, so p50/p99/
//     p999 are directly comparable across all three layers.
//  3. Paced open-loop run at a fraction of the measured wire capacity:
//     arrival-time pacing (not closed-loop back-to-back), the latency
//     numbers docs/networking.md quotes.
//
// The headline ratio `wire_fraction` is wire batch-1 q/s over in-process
// batch-1 q/s at the same concurrency: the full cost of frames, checksums,
// loopback TCP and the event loop. The JSON line also exports the server's
// NetStats so a result archive can see bytes moved, frames batched and
// that nothing was shed or rejected during the measurement.
//
// Flags: --conns_sweep=1,4,16 --clients=4 --net_min_seconds=S
//        --open_load=0.6 --batch_large=64
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/net_stats.h"
#include "net/server.h"
#include "serve/serving_engine.h"

namespace duet::bench {
namespace {

using Clock = std::chrono::steady_clock;
using net::NetServer;
using net::RpcClient;
using query::Query;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct WireResult {
  int conns = 0;
  int batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Closed-loop wire run: `conns` client threads hammering batch-`batch`
/// EstimateBatch frames for `seconds`. Returns merged client-side numbers.
WireResult RunWireClosedLoop(uint16_t port, const std::vector<Query>& queries, int conns,
                             int batch, double seconds) {
  WireResult result;
  result.conns = conns;
  result.batch = batch;
  std::vector<LatencyHistogram> hists(static_cast<size_t>(conns));
  std::vector<uint64_t> served(static_cast<size_t>(conns), 0);
  std::atomic<bool> failed{false};
  const std::vector<Query> frame(queries.begin(), queries.begin() + batch);

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      RpcClient client;
      if (!client.Connect("127.0.0.1", port).ok) {
        failed.store(true);
        return;
      }
      std::vector<serve::Estimate> out;
      while (Clock::now() < stop) {
        const Clock::time_point t0 = Clock::now();
        if (!client.EstimateBatch("", frame, 0, &out).ok) {
          failed.store(true);
          return;
        }
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count();
        hists[static_cast<size_t>(c)].Record(micros);
        served[static_cast<size_t>(c)] += static_cast<uint64_t>(batch);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = Seconds(start, Clock::now());
  if (failed.load()) {
    std::fprintf(stderr, "bench_net: wire run failed (conns=%d batch=%d)\n", conns, batch);
    std::exit(1);
  }
  LatencyHistogram merged;
  uint64_t total = 0;
  for (int c = 0; c < conns; ++c) {
    merged.MergeFrom(hists[static_cast<size_t>(c)]);
    total += served[static_cast<size_t>(c)];
  }
  result.qps = static_cast<double>(total) / elapsed;
  result.p50_us = merged.Quantile(0.5);
  result.p99_us = merged.Quantile(0.99);
  result.p999_us = merged.Quantile(0.999);
  return result;
}

}  // namespace
}  // namespace duet::bench

int main(int argc, char** argv) {
  using namespace duet;
  using namespace duet::bench;
  Flags flags(argc, argv);
  const double scale = Flags::ScaleFactor();
  const double min_seconds = flags.GetDouble("net_min_seconds", std::min(1.0, 2.0 * scale));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const int batch_large = static_cast<int>(flags.GetInt("batch_large", 64));
  const double open_load = flags.GetDouble("open_load", 0.6);

  data::Table table = MakeCensus();
  core::DuetModel model(table, DuetOptionsFor(table));
  core::DuetEstimator estimator(model);

  const query::Workload rand_q = MakeRandQ(table, std::max(batch_large, 256));
  std::vector<Query> queries;
  queries.reserve(rand_q.size());
  for (const auto& lq : rand_q) queries.push_back(lq.query);

  serve::ServingOptions serving;
  serving.max_batch = batch_large;
  serve::ServingEngine engine(estimator, serving);

  net::NetServerOptions net_options;
  NetServer server(engine, net_options);
  {
    const net::WireStatus st = server.Start();
    if (!st.ok) {
      std::fprintf(stderr, "bench_net: server start failed: %s\n", st.error.c_str());
      return 1;
    }
  }

  std::printf("Network front-end on 127.0.0.1:%u (%s, %lld rows x %d cols, %u pool threads)\n",
              server.port(), table.name().c_str(),
              static_cast<long long>(table.num_rows()), table.num_columns(),
              ThreadPool::Global().num_threads());

  // ---- in-process baselines --------------------------------------------
  // Batch-1 closed loop through the SAME async micro-batcher the wire path
  // feeds, at the same concurrency as the headline wire row.
  double inproc_b1_qps = 0.0;
  {
    std::vector<uint64_t> served(static_cast<size_t>(clients), 0);
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(min_seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        size_t at = static_cast<size_t>(c);
        while (Clock::now() < stop) {
          engine.Submit(queries[at % queries.size()]).Wait();
          at += static_cast<size_t>(clients);
          ++served[static_cast<size_t>(c)];
        }
      });
    }
    for (auto& t : threads) t.join();
    uint64_t total = 0;
    for (uint64_t s : served) total += s;
    inproc_b1_qps = static_cast<double>(total) / Seconds(start, Clock::now());
  }
  // Batch-64 sync path: the engine's sharded EstimateBatch ceiling.
  double inproc_b64_qps = 0.0;
  {
    const std::vector<Query> frame(queries.begin(), queries.begin() + batch_large);
    uint64_t total = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(min_seconds));
    while (Clock::now() < stop) {
      engine.EstimateBatch(frame);
      total += static_cast<uint64_t>(batch_large);
    }
    inproc_b64_qps = static_cast<double>(total) / Seconds(start, Clock::now());
  }
  std::printf("in-process     batch 1 x%d threads %12.1f q/s    batch %d sync %12.1f q/s\n",
              clients, inproc_b1_qps, batch_large, inproc_b64_qps);

  // ---- closed-loop wire sweep ------------------------------------------
  std::vector<int> conns_sweep;
  {
    const std::string spec = flags.GetString("conns_sweep", "1,4,16");
    size_t pos = 0;
    while (pos < spec.size()) {
      const size_t comma = spec.find(',', pos);
      const std::string tok = spec.substr(pos, comma == std::string::npos ? spec.npos
                                                                          : comma - pos);
      if (!tok.empty()) conns_sweep.push_back(std::max(1, std::atoi(tok.c_str())));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (conns_sweep.empty()) conns_sweep = {1, 4, 16};
  }

  std::printf("%-8s %8s %12s %10s %10s %10s\n", "conns", "batch", "wire q/s", "p50 us",
              "p99 us", "p999 us");
  std::vector<WireResult> sweep;
  double headline_wire_qps = 0.0;
  for (int conns : conns_sweep) {
    for (int batch : {1, batch_large}) {
      const WireResult r =
          RunWireClosedLoop(server.port(), queries, conns, batch, min_seconds);
      std::printf("%-8d %8d %12.1f %10.0f %10.0f %10.0f\n", r.conns, r.batch, r.qps,
                  r.p50_us, r.p99_us, r.p999_us);
      if (conns == clients && batch == 1) headline_wire_qps = r.qps;
      sweep.push_back(r);
    }
  }
  if (headline_wire_qps == 0.0 && !sweep.empty()) headline_wire_qps = sweep.front().qps;
  const double wire_fraction =
      inproc_b1_qps > 0.0 ? headline_wire_qps / inproc_b1_qps : 0.0;
  std::printf("wire batch-1 throughput = %.2fx in-process batch-1 (same %d-way concurrency)\n",
              wire_fraction, clients);

  // ---- paced open-loop run ---------------------------------------------
  // Offer a fixed fraction of the measured wire capacity with arrival-time
  // pacing; the latencies here are what a non-saturating client sees.
  WireResult open;
  double offered_qps = open_load * headline_wire_qps;
  {
    const int conns = clients;
    offered_qps = std::max(offered_qps, 100.0);
    const double per_conn_qps = offered_qps / conns;
    std::vector<LatencyHistogram> hists(static_cast<size_t>(conns));
    std::vector<uint64_t> served(static_cast<size_t>(conns), 0);
    std::atomic<bool> failed{false};
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(min_seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        RpcClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok) {
          failed.store(true);
          return;
        }
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / per_conn_qps));
        Clock::time_point next = start + (c + 1) * interval / conns;
        std::vector<serve::Estimate> out;
        std::vector<Query> one(1);
        size_t at = static_cast<size_t>(c);
        while (next < stop) {
          std::this_thread::sleep_until(next);
          one[0] = queries[at % queries.size()];
          at += static_cast<size_t>(conns);
          const Clock::time_point t0 = Clock::now();
          if (!client.EstimateBatch("", one, 0, &out).ok) {
            failed.store(true);
            return;
          }
          const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                  Clock::now() - t0)
                                  .count();
          hists[static_cast<size_t>(c)].Record(micros);
          ++served[static_cast<size_t>(c)];
          next += interval;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed.load()) {
      std::fprintf(stderr, "bench_net: open-loop run failed\n");
      return 1;
    }
    LatencyHistogram merged;
    uint64_t total = 0;
    for (int c = 0; c < conns; ++c) {
      merged.MergeFrom(hists[static_cast<size_t>(c)]);
      total += served[static_cast<size_t>(c)];
    }
    open.conns = conns;
    open.batch = 1;
    open.qps = static_cast<double>(total) / Seconds(start, Clock::now());
    open.p50_us = merged.Quantile(0.5);
    open.p99_us = merged.Quantile(0.99);
    open.p999_us = merged.Quantile(0.999);
  }
  std::printf("open loop @%.0f%% capacity: offered %.1f q/s, served %.1f q/s, "
              "p50 %.0f us, p99 %.0f us, p999 %.0f us\n",
              100.0 * open_load, offered_qps, open.qps, open.p50_us, open.p99_us,
              open.p999_us);

  const net::NetStats ns = server.stats();
  server.Stop();

  // ---- JSON line (docs/benchmarks.md schema) ---------------------------
  std::string wire_json;
  for (const WireResult& r : sweep) {
    char row[192];
    std::snprintf(row, sizeof(row),
                  "%s{\"conns\":%d,\"batch\":%d,\"qps\":%.1f,\"p50_us\":%.0f,"
                  "\"p99_us\":%.0f,\"p999_us\":%.0f}",
                  wire_json.empty() ? "" : ",", r.conns, r.batch, r.qps, r.p50_us, r.p99_us,
                  r.p999_us);
    wire_json += row;
  }
  std::printf(
      "{\"bench\":\"net\",\"inprocess\":{\"batch1_qps\":%.1f,\"batch%d_qps\":%.1f},"
      "\"wire\":[%s],\"wire_fraction\":%.3f,"
      "\"open_loop\":{\"load\":%.2f,\"offered_qps\":%.1f,\"achieved_qps\":%.1f,"
      "\"p50_us\":%.0f,\"p99_us\":%.0f,\"p999_us\":%.0f},"
      "\"net_stats\":{\"bytes_in\":%llu,\"bytes_out\":%llu,\"frames_in\":%llu,"
      "\"frames_out\":%llu,\"batched_frames\":%llu,\"queries\":%llu,\"sheds\":%llu,"
      "\"protocol_errors\":%llu,\"inflight_high_water\":%lld}}\n",
      inproc_b1_qps, batch_large, inproc_b64_qps, wire_json.c_str(), wire_fraction,
      open_load, offered_qps, open.qps, open.p50_us, open.p99_us, open.p999_us,
      static_cast<unsigned long long>(ns.bytes_in),
      static_cast<unsigned long long>(ns.bytes_out),
      static_cast<unsigned long long>(ns.frames_in),
      static_cast<unsigned long long>(ns.frames_out),
      static_cast<unsigned long long>(ns.batched_frames),
      static_cast<unsigned long long>(ns.queries),
      static_cast<unsigned long long>(ns.sheds),
      static_cast<unsigned long long>(ns.protocol_errors),
      static_cast<long long>(ns.inflight_high_water));
  return 0;
}
