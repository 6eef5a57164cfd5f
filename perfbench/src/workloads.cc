#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "artifact/artifact.h"
#include "common/rng.h"
#include "core/duet_model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "optimizer/card_provider.h"
#include "optimizer/planner.h"
#include "query/estimator.h"
#include "query/workload.h"
#include "serve/model_registry.h"
#include "serve/model_zoo.h"
#include "serve/serving_engine.h"
#include "serve/update_worker.h"
#include "tracing.h"

namespace perfbench {

namespace {

using namespace duet;
using query::Query;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Tables and models are a fixed fixture (their
// seed does not move with --seed), so accuracy figures are deterministic
// and a change in them is a change in the code; query streams and arrival
// times are drawn from --seed.
// ---------------------------------------------------------------------------
constexpr uint64_t kFixtureSeed = 20240517;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;
/// Wire connections / generator threads (the reference host has 4 cores).
constexpr int kConnections = 4;
/// Fixed absolute open-loop rates (q/s). kBusyRate is 30-45% of the
/// 4-connection batch-1 wire capacity point_wire's capacity bursts measure
/// on the reference host (4 hardware threads, avx512: 6.7k-10k
/// q/s as the host's load varies); nearer capacity a Poisson stream's
/// bursts build backlogs that dominate every percentile.
constexpr double kIdleRate = 500.0;
constexpr double kBusyRate = 3000.0;
/// slo_qps ladder (q/s) and the per-request latency limit.
const std::vector<double> kLadder = {3000.0, 4000.0, 5000.0, 6000.0, 7000.0};
constexpr double kSloUs = 1000.0;
/// point_wire's capacity bursts: length (a share of --seconds) and
/// completions per throughput window.
constexpr double kCapacityBurst = 0.05;
constexpr size_t kCapacityWindow = 1000;
/// plan_search's idle probe: one plan search per period.
constexpr double kPlanIdlePeriodS = 0.010;
/// Alternating traced / untraced slices (trace runs only) for
/// trace.overhead_pct.
constexpr double kTraceSliceS = 0.2;
/// live_update: feedback pairs per update round, the fixed feedback pool
/// the rounds cycle through (in chunks of one round), and the round after
/// which the serving snapshot's accuracy is scored.
constexpr int64_t kFeedbackPerRound = 128;
constexpr int kFeedbackChunks = 8;
constexpr int kScoredRound = 4;
/// live_update: an update round starts every kUpdatePeriodS of the busy
/// phase (at once when the previous one overran); latency windows span one
/// period at the busy rate, so each holds one round.
constexpr double kUpdatePeriodS = 0.5;
constexpr size_t kLiveWindow = static_cast<size_t>(kBusyRate * kUpdatePeriodS);
/// live_update: fewest rounds of the update-throughput phase.
constexpr size_t kMinUpdateRounds = 5;

enum Outcome : uint8_t { kOk = 0, kDegraded = 1, kFailed = 2 };

/// Returns memory the set-up freed to the OS and restarts the peak-RSS
/// counter (Linux clear_refs "5"), so rss_mib is the serving phase's peak
/// rather than whichever allocator arenas training happened to touch.
void StartServingPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// User plus system CPU time of the whole process, in seconds.
double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-up phase timings of one repetition.
struct SetupTimes {
  double table_s = 0.0;
  double label_s = 0.0;
  double train_s = 0.0;
  double artifact_ms = 0.0;
  double start_ms = 0.0;
  double total_s = 0.0;
  double train_tps = 0.0;
};

/// Runs `setup` kSetupReps times, keeping the last stack; reports the
/// per-field medians.
template <typename Stack>
std::unique_ptr<Stack> RepeatedSetup(const std::function<std::unique_ptr<Stack>(SetupTimes*)>& setup,
                                     Report* report) {
  std::vector<SetupTimes> reps;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupReps; ++r) {
    stack.reset();  // tear the previous stack down before building the next
    SetupTimes t;
    const int64_t start = NowNs();
    stack = setup(&t);
    t.total_s = static_cast<double>(NowNs() - start) / 1e9;
    reps.push_back(t);
  }
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };
  report->Set("setup_s", med(&SetupTimes::total_s), "s");
  report->Set("data.table_s", med(&SetupTimes::table_s), "s");
  report->Set("query.label_s", med(&SetupTimes::label_s), "s");
  report->Set("core.train_s", med(&SetupTimes::train_s), "s");
  report->Set("artifact.write_ms", med(&SetupTimes::artifact_ms), "ms");
  report->Set("net.start_ms", med(&SetupTimes::start_ms), "ms");
  report->Set("core.train_tuples_per_s", med(&SetupTimes::train_tps), "tuples/s");
  std::printf("set-up: %d repetitions, median %.4f s\n", kSetupReps, med(&SetupTimes::total_s));
  StartServingPeakRss();
  return stack;
}

/// Labelled query pool over `table`. `shifted` draws the skewed training-
/// style distribution (gamma predicate count, bounded column) instead of
/// the uniform one.
query::Workload LabelledPool(const data::Table& table, int n, uint64_t seed, bool shifted) {
  query::WorkloadSpec spec;
  spec.num_queries = n;
  spec.seed = seed;
  if (shifted) {
    spec.gamma_num_predicates = true;
    spec.bounded_column = table.LargestNdvColumn();
  }
  return query::WorkloadGenerator(table, spec).Generate();
}

std::vector<Query> QueriesOf(const query::Workload& wl) {
  std::vector<Query> out;
  out.reserve(wl.size());
  for (const auto& lq : wl) out.push_back(lq.query);
  return out;
}

/// Trains a ResMADE Duet model over `table` (hybrid loss on `train_wl`).
std::unique_ptr<core::DuetModel> TrainModel(const data::Table& table,
                                            std::vector<int64_t> hidden, int epochs,
                                            const query::Workload* train_wl, SetupTimes* t) {
  core::DuetModelOptions mopt;
  mopt.hidden_sizes = std::move(hidden);
  mopt.residual = true;
  mopt.seed = kFixtureSeed;
  auto model = std::make_unique<core::DuetModel>(table, mopt);
  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = 256;
  topt.seed = kFixtureSeed;
  topt.train_workload = train_wl;
  const int64_t start = NowNs();
  const std::vector<core::EpochStats> epochs_run = core::DuetTrainer(*model, topt).Train();
  t->train_s += static_cast<double>(NowNs() - start) / 1e9;
  double tps = 0.0;
  for (const core::EpochStats& e : epochs_run) tps += e.tuples_per_second;
  t->train_tps = epochs_run.empty() ? 0.0 : tps / static_cast<double>(epochs_run.size());
  return model;
}

double QErrorOf(double selectivity, int64_t rows, uint64_t label) {
  return query::QError(query::CardinalityEstimator::ClampSelectivity(selectivity) *
                           static_cast<double>(rows),
                       static_cast<double>(label));
}

void ReportQErrors(const std::vector<double>& qerrors, Report* report) {
  LatencyRecorder rec;
  for (double q : qerrors) rec.Add(q);
  double p50 = 0.0, p99 = 0.0;
  report->Check(rec.Quantile(0.5, &p50) && rec.Quantile(0.99, &p99),
                "too few answers for the q-error p99 (" + std::to_string(rec.count()) + ")");
  report->Set("qerror_p50", p50, "ratio");
  report->Set("qerror_p99", p99, "ratio");
}

/// Rank, among a run's windows, of the window a timing is read from
/// (LatencyRecorder::QuietQuantile): the 10th percentile of per-window
/// latencies, the 90th of per-slice throughputs.
constexpr double kQuietPick = 0.1;

/// Sets `name` to the quiet-window quantile q of `rec` (samples in issue
/// order, `window` samples a window; 0 = the whole run as one window) and
/// prints it with its sample count. A `required` metric the percentile
/// rule refuses fails the run — it is never read off too few samples; an
/// optional one (a tail percentile) is then reported as missing.
void SetQuantile(const LatencyRecorder& rec, double q, size_t window, const std::string& name,
                 Report* report, bool required = true) {
  double v = 0.0;
  if (!rec.QuietQuantile(q, window, kQuietPick, &v)) {
    const std::string why = name + ": " + std::to_string(rec.count()) + " samples, " +
                            std::to_string(LatencyRecorder::MinSamplesFor(q)) + " needed";
    if (!required) {
      std::printf("  %s — not reported\n", why.c_str());
      return;
    }
    report->Fail(why);
    report->Set(name, 0.0, "us");
    return;
  }
  report->Set(name, v, "us");
  std::printf("  %-32s %14.4f us   (%zu samples%s)\n", name.c_str(), v, rec.count(),
              window > 0 && rec.count() >= 2 * window ? ", quiet window" : "");
}

/// Per-request log of one open-loop phase. Absolute times in ns.
struct RequestLog {
  std::vector<int64_t> due, sent, done;
  std::vector<uint32_t> pool;
  std::vector<double> answer;
  std::vector<uint8_t> outcome;
  std::vector<uint8_t> traced;  ///< issued inside a traced slice

  size_t size() const { return due.size(); }
  void Resize(size_t n) {
    due.assign(n, 0);
    sent.assign(n, 0);
    done.assign(n, 0);
    pool.assign(n, 0);
    answer.assign(n, 0.0);
    outcome.assign(n, kFailed);
    traced.assign(n, 0);
  }
};

/// The seed's order of a fixture query pool.
std::vector<uint32_t> PoolOrder(size_t pool_size, uint64_t seed) {
  Rng rng(seed);
  return rng.Permutation(static_cast<uint32_t>(pool_size));
}

/// Poisson arrivals at `rate` over `seconds`, walking the pool in `order`
/// from *cursor; due times start shortly after the call.
RequestLog MakeSchedule(double rate, double seconds, uint64_t seed,
                        const std::vector<uint32_t>& order, size_t* cursor) {
  const std::vector<int64_t> offsets = PoissonDueTimes(rate, seconds, seed);
  RequestLog log;
  log.Resize(offsets.size());
  const int64_t start = NowNs() + 2000000;  // 2 ms for the threads to start
  for (size_t i = 0; i < offsets.size(); ++i) {
    log.due[i] = start + offsets[i];
    log.pool[i] = order[(*cursor + i) % order.size()];
  }
  *cursor += offsets.size();
  return log;
}

/// Re-times `log`'s schedule to start now (same offsets, same queries).
RequestLog Replay(const RequestLog& log) {
  RequestLog out;
  out.Resize(log.size());
  if (log.size() == 0) return out;
  const int64_t shift = NowNs() + 2000000 - log.due[0];
  for (size_t i = 0; i < log.size(); ++i) {
    out.due[i] = log.due[i] + shift;
    out.pool[i] = log.pool[i];
  }
  return out;
}

/// Whether due time `t` falls in a traced slice of a phase starting at
/// `start` (even slices traced, odd untraced).
bool InTracedSlice(int64_t start, int64_t t) {
  const int64_t slice = static_cast<int64_t>(kTraceSliceS * 1e9);
  return ((t - start) / slice) % 2 == 0;
}

/// Toggles `set_tracing` on slice boundaries until `stop` (trace runs).
std::thread SliceToggler(int64_t start, std::atomic<bool>* stop,
                         std::function<void(bool)> set_tracing) {
  return std::thread([start, stop, set_tracing] {
    TightenTimerSlack();
    const int64_t slice = static_cast<int64_t>(kTraceSliceS * 1e9);
    for (int64_t k = 0; !stop->load(); ++k) {
      SleepUntilNs(start + k * slice);
      set_tracing(k % 2 == 0);
      while (!stop->load() && NowNs() < start + (k + 1) * slice) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  });
}

/// Due-time latency of every request; with `miss_as_inf`, a request that
/// did not succeed counts as an infinite latency (it missed the limit).
LatencyRecorder DueLatencies(const RequestLog& log, bool miss_as_inf, int traced = -1) {
  LatencyRecorder rec;
  for (size_t i = 0; i < log.size(); ++i) {
    if (traced >= 0 && log.traced[i] != traced) continue;
    if (log.outcome[i] != kOk) {
      if (miss_as_inf) rec.Add(1e18);
      continue;
    }
    rec.Add(DueLatencyUs(log.due[i], log.done[i]));
  }
  return rec;
}

LatencyRecorder Lateness(const RequestLog& log) {
  LatencyRecorder rec;
  for (size_t i = 0; i < log.size(); ++i) rec.Add(LatenessUs(log.due[i], log.sent[i]));
  return rec;
}

void CountOutcomes(const RequestLog& log, OpCounts* ops) {
  for (size_t i = 0; i < log.size(); ++i) {
    ops->attempted++;
    if (log.outcome[i] == kOk) ops->succeeded++;
    else if (log.outcome[i] == kDegraded) ops->degraded++;
    else ops->failed++;
  }
}

/// Runs `log`'s schedule over blocking wire clients, one thread per
/// connection. Requests are taken in due order by whichever connection is
/// free (one shared queue in front of all connections), so a request waits
/// for a connection only when every connection is busy.
void RunWirePhase(std::vector<net::RpcClient>& clients,
                  const std::vector<std::vector<Query>>& singles, RequestLog* log) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      TightenTimerSlack();
      std::vector<serve::Estimate> out;
      for (size_t i = next++; i < log->size(); i = next++) {
        SleepUntilNs(log->due[i]);
        log->sent[i] = NowNs();
        const net::WireStatus st =
            clients[c].EstimateBatch("", singles[log->pool[i]], 0, &out);
        log->done[i] = NowNs();
        if (!st.ok || out.size() != 1) {
          log->outcome[i] = kFailed;
          continue;
        }
        log->answer[i] = out[0].selectivity;
        log->outcome[i] = out[0].degraded() ? kDegraded : kOk;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Closed loop over the wire for `seconds`: every connection sends its
/// next batch-1 request (walking the pool in `order` from *cursor) as soon
/// as its previous answer arrives. Returns every request, due = sent.
RequestLog RunClosedWirePhase(std::vector<net::RpcClient>& clients,
                              const std::vector<std::vector<Query>>& singles,
                              const std::vector<uint32_t>& order, double seconds, size_t* cursor) {
  std::vector<RequestLog> per(clients.size());
  std::atomic<size_t> next{*cursor};
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<serve::Estimate> out;
      RequestLog& log = per[c];
      for (int64_t now = NowNs(); now < end;) {
        const uint32_t q = order[next++ % order.size()];
        const net::WireStatus st = clients[c].EstimateBatch("", singles[q], 0, &out);
        const int64_t done = NowNs();
        const bool ok = st.ok && out.size() == 1;
        log.due.push_back(now);
        log.sent.push_back(now);
        log.done.push_back(done);
        log.pool.push_back(q);
        log.answer.push_back(ok ? out[0].selectivity : 0.0);
        log.outcome.push_back(!ok ? kFailed : out[0].degraded() ? kDegraded : kOk);
        log.traced.push_back(0);
        now = done;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *cursor = next;
  RequestLog all;
  for (const RequestLog& log : per) {
    all.due.insert(all.due.end(), log.due.begin(), log.due.end());
    all.sent.insert(all.sent.end(), log.sent.begin(), log.sent.end());
    all.done.insert(all.done.end(), log.done.begin(), log.done.end());
    all.pool.insert(all.pool.end(), log.pool.begin(), log.pool.end());
    all.answer.insert(all.answer.end(), log.answer.begin(), log.answer.end());
    all.outcome.insert(all.outcome.end(), log.outcome.begin(), log.outcome.end());
    all.traced.insert(all.traced.end(), log.traced.begin(), log.traced.end());
  }
  return all;
}

/// Throughputs of a closed-loop phase: its successful completions in time
/// order are cut into windows of kCapacityWindow, and each window's rate is
/// kCapacityWindow over the time the window took.
std::vector<double> ClosedLoopRates(const RequestLog& log) {
  std::vector<int64_t> done;
  for (size_t i = 0; i < log.size(); ++i) {
    if (log.outcome[i] == kOk) done.push_back(log.done[i]);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (size_t k = 0; k + kCapacityWindow < done.size(); k += kCapacityWindow) {
    rates.push_back(static_cast<double>(kCapacityWindow) /
                    (static_cast<double>(done[k + kCapacityWindow] - done[k]) / 1e9));
  }
  return rates;
}

/// Runs `log`'s schedule through engine.SubmitWithCallback from one
/// generator thread and waits for every completion (the engine invokes
/// each callback exactly once; run.py's timeout bounds a hang).
void RunSubmitPhase(serve::ServingEngine& engine, const std::vector<Query>& pool,
                    RequestLog* log) {
  std::atomic<size_t> completed{0};
  std::thread gen([&] {
    TightenTimerSlack();
    for (size_t i = 0; i < log->size(); ++i) {
      SleepUntilNs(log->due[i]);
      log->sent[i] = NowNs();
      engine.SubmitWithCallback(pool[log->pool[i]], 0,
                                [log, i, &completed](const serve::Estimate& e) {
                                  log->done[i] = NowNs();
                                  log->answer[i] = e.selectivity;
                                  log->outcome[i] = e.degraded() ? kDegraded : kOk;
                                  completed.fetch_add(1, std::memory_order_release);
                                });
    }
  });
  gen.join();
  while (completed.load(std::memory_order_acquire) < log->size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Finds, for each request, the traced model call that served it: the
/// first call of a query with the same fingerprint starting at or after
/// the request's send time. Returns indices into `spans` (-1 = none).
std::vector<int64_t> MatchCalls(const RequestLog& log, const std::vector<Query>& pool,
                                const std::vector<QuerySpan>& spans) {
  std::unordered_map<uint64_t, std::vector<int64_t>> by_fp;
  for (size_t s = 0; s < spans.size(); ++s) {
    by_fp[spans[s].fingerprint].push_back(static_cast<int64_t>(s));
  }
  for (auto& [fp, idx] : by_fp) {
    std::sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
      return spans[static_cast<size_t>(a)].call_start_ns <
             spans[static_cast<size_t>(b)].call_start_ns;
    });
  }
  std::vector<int64_t> match(log.size(), -1);
  for (size_t i = 0; i < log.size(); ++i) {
    auto it = by_fp.find(QueryFingerprint(pool[log.pool[i]]));
    if (it == by_fp.end()) continue;
    for (int64_t s : it->second) {
      const QuerySpan& span = spans[static_cast<size_t>(s)];
      if (span.call_start_ns >= log.sent[i] && span.call_end_ns <= log.done[i]) {
        match[i] = s;
        break;
      }
    }
  }
  return match;
}

/// Model-call metrics from traced spans: call latency percentiles, stage
/// costs per row, rows per call.
void ReportCallSpans(const std::vector<CallSpan>& calls, Report* report) {
  LatencyRecorder call_us, rows;
  double encode = 0.0, forward = 0.0, post = 0.0, total_rows = 0.0;
  for (const CallSpan& c : calls) {
    call_us.Add(static_cast<double>(c.end_ns - c.start_ns) / 1e3);
    rows.Add(static_cast<double>(c.rows));
    encode += c.encode_ns;
    forward += c.forward_ns;
    post += c.post_ns;
    total_rows += static_cast<double>(c.rows);
  }
  report->Set("core.call_p50_us", call_us.QuantileOr0(0.5), "us");
  report->Set("core.call_p99_us", call_us.QuantileOr0(0.99), "us");
  report->Set("serve.rows_per_call_p50", rows.QuantileOr0(0.5), "rows");
  if (total_rows > 0.0) {
    report->Set("core.encode_ns_per_row", encode / total_rows, "ns/row");
    report->Set("nn.forward_ns_per_row", forward / total_rows, "ns/row");
    report->Set("core.post_ns_per_row", post / total_rows, "ns/row");
  }
}

/// Engine counters common to every workload.
void ReportServingStats(const serve::ServingStats& s, Report* report) {
  report->Set("serve.fused_share",
              s.queries > 0 ? static_cast<double>(s.fused_requests) / static_cast<double>(s.queries)
                            : 0.0,
              "ratio");
  report->Set("serve.degraded", static_cast<double>(s.fallback_served), "count");
  report->Set("serve.queue_high_water", static_cast<double>(s.queue_high_water), "count");
}

void ReportWeightBytes(double weight_bytes, Report* report) {
  report->Set("tensor.weight_bytes", weight_bytes, "B");
  auto it = report->metrics().find("serve.rows_per_call_p50");
  if (it != report->metrics().end() && it->second.value > 0.0) {
    // Computed, not measured: packed weight bytes streamed once per call,
    // spread over the median call's rows.
    report->Set("tensor.weight_bytes_per_row", weight_bytes / it->second.value, "B/row");
  }
}

/// Percent by which the traced slices' median latency exceeds the
/// untraced slices' (trace.overhead_pct).
double OverheadPct(const LatencyRecorder& traced, const LatencyRecorder& untraced) {
  const double base = untraced.QuantileOr0(0.5);
  return base > 0.0 ? 100.0 * (traced.QuantileOr0(0.5) - base) / base : 0.0;
}

/// The traced stage split must have matched EstimateSelectivityBatch
/// bitwise on every sampled call.
void CheckSplit(const TracedEstimator& traced, Report* report) {
  report->Check(traced.split_mismatches() == 0,
                "traced stage split differs bitwise from EstimateSelectivityBatch");
  std::printf("trace: %llu sampled split checks, %llu mismatches\n",
              static_cast<unsigned long long>(traced.split_checks()),
              static_cast<unsigned long long>(traced.split_mismatches()));
}

/// Checks each successful answer bitwise against the in-process reference;
/// a wrong answer is a failed operation and a correctness violation.
void CheckAnswers(RequestLog* log, const std::vector<double>& reference, const std::string& what,
                  Report* report) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < log->size(); ++i) {
    if (log->outcome[i] != kOk) continue;
    const double ref = reference[log->pool[i]];
    if (std::memcmp(&ref, &log->answer[i], sizeof(double)) != 0) {
      ++wrong;
      log->outcome[i] = kFailed;
    }
  }
  report->Check(wrong == 0, what + ": " + std::to_string(wrong) +
                                " answers differ bitwise from in-process EstimateBatch");
}

/// Writes the spans a traced run kept in memory (one JSON object a line).
class SpanWriter {
 public:
  explicit SpanWriter(const RunConfig& config) {
    if (!config.trace || config.trace_dir.empty()) return;
    path_ = config.trace_dir + "/" + config.workload + "-seed" + std::to_string(config.seed) +
            ".jsonl";
  }
  void Calls(const std::string& phase, const std::vector<CallSpan>& calls) {
    if (path_.empty()) return;
    for (const CallSpan& c : calls) {
      lines_.push_back("{\"span\":\"model_call\",\"phase\":\"" + phase + "\",\"start_ns\":" +
                       std::to_string(c.start_ns) + ",\"end_ns\":" + std::to_string(c.end_ns) +
                       ",\"rows\":" + std::to_string(c.rows) + ",\"encode_ns\":" +
                       JsonNumber(c.encode_ns) + ",\"forward_ns\":" + JsonNumber(c.forward_ns) +
                       ",\"post_ns\":" + JsonNumber(c.post_ns) + "}");
    }
  }
  void Requests(const std::string& phase, const RequestLog& log) {
    if (path_.empty()) return;
    for (size_t i = 0; i < log.size(); ++i) {
      lines_.push_back("{\"span\":\"request\",\"phase\":\"" + phase + "\",\"due_ns\":" +
                       std::to_string(log.due[i]) + ",\"sent_ns\":" + std::to_string(log.sent[i]) +
                       ",\"done_ns\":" + std::to_string(log.done[i]) + ",\"outcome\":" +
                       std::to_string(log.outcome[i]) + "}");
    }
  }
  void Values(const std::string& span, const std::vector<double>& us) {
    if (path_.empty()) return;
    for (double v : us) lines_.push_back("{\"span\":\"" + span + "\",\"us\":" + JsonNumber(v) + "}");
  }
  ~SpanWriter() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    for (const std::string& l : lines_) out << l << "\n";
    std::printf("trace: %zu spans written to %s\n", lines_.size(), path_.c_str());
  }

 private:
  std::string path_;
  std::vector<std::string> lines_;
};

// ===========================================================================
// point_wire
// ===========================================================================

struct CensusStack {
  data::Table table;
  query::Workload train_wl;
  query::Workload pool;
  std::unique_ptr<core::DuetModel> model;
};

/// The Census-like fixture shared by point_wire and live_update: table,
/// a small hybrid-training workload, the model, and the serving pool.
void BuildCensus(CensusStack* s, SetupTimes* t) {
  int64_t start = NowNs();
  s->table = data::CensusLike(4000, kFixtureSeed);
  t->table_s = static_cast<double>(NowNs() - start) / 1e9;
  start = NowNs();
  s->train_wl = LabelledPool(s->table, 256, kFixtureSeed, /*shifted=*/true);
  s->pool = LabelledPool(s->table, 4096, kFixtureSeed + 1, /*shifted=*/false);
  t->label_s = static_cast<double>(NowNs() - start) / 1e9;
  s->model = TrainModel(s->table, {128, 128}, 1, &s->train_wl, t);
}

struct PointWireStack {
  CensusStack census;
  std::unique_ptr<query::CardinalityEstimator> estimator;
  TracedEstimator* traced = nullptr;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<net::NetServer> server;
};

void RunPointWire(const RunConfig& cfg, Report* report, OpCounts* ops) {
  auto stack = RepeatedSetup<PointWireStack>(
      [&](SetupTimes* t) {
        auto s = std::make_unique<PointWireStack>();
        BuildCensus(&s->census, t);
        const int64_t start = NowNs();
        if (cfg.trace) {
          auto traced = std::make_unique<TracedEstimator>(*s->census.model);
          s->traced = traced.get();
          s->estimator = std::move(traced);
        } else {
          s->estimator = std::make_unique<core::DuetEstimator>(*s->census.model);
        }
        s->engine = std::make_unique<serve::ServingEngine>(*s->estimator);
        net::NetServerOptions nopt;
        nopt.snapshot_scratch_path = cfg.tmpdir + "/snapshot";
        s->server = std::make_unique<net::NetServer>(*s->engine, nopt);
        const net::WireStatus st = s->server->Start();
        if (!st.ok) throw std::runtime_error("NetServer::Start: " + st.error);
        t->start_ms = static_cast<double>(NowNs() - start) / 1e6;
        return s;
      },
      report);
  SpanWriter spans(cfg);
  const std::vector<Query> pool = QueriesOf(stack->census.pool);
  std::vector<std::vector<Query>> singles;
  for (const Query& q : pool) singles.push_back({q});
  const std::vector<double> reference = stack->census.model->EstimateSelectivityBatch(pool);
  const std::vector<uint32_t> order = PoolOrder(pool.size(), cfg.seed);

  std::vector<net::RpcClient> clients(kConnections);
  for (net::RpcClient& c : clients) {
    const net::WireStatus st = c.Connect("127.0.0.1", stack->server->port());
    if (!st.ok) throw std::runtime_error("RpcClient::Connect: " + st.error);
  }
  const double S = cfg.seconds;
  size_t cursor = 0;
  uint64_t phase_seed = cfg.seed * 1000003ULL;

  {  // warm-up at the busy rate, not recorded
    RequestLog warm = MakeSchedule(kBusyRate, 0.3, ++phase_seed, order, &cursor);
    RunWirePhase(clients, singles, &warm);
  }
  // Capacity: the same connections in a closed loop, in three bursts spread
  // over the run (before the idle phase, after the busy phase, at the end),
  // so the quiet-window pick can find a stretch the host left alone.
  std::vector<RequestLog> capacity;
  auto capacity_burst = [&] {
    capacity.push_back(RunClosedWirePhase(clients, singles, order, kCapacityBurst * S, &cursor));
  };
  capacity_burst();
  if (stack->traced) stack->traced->set_tracing(true);
  RequestLog idle = MakeSchedule(kIdleRate, 0.2 * S, ++phase_seed, order, &cursor);
  RunWirePhase(clients, singles, &idle);
  if (stack->traced) {
    spans.Calls("idle", stack->traced->calls());
    stack->traced->ClearSpans();
  }

  RequestLog busy = MakeSchedule(kBusyRate, 0.45 * S, ++phase_seed, order, &cursor);
  {
    std::atomic<bool> stop{false};
    std::thread toggler;
    if (stack->traced) {
      TracedEstimator* traced = stack->traced;
      toggler = SliceToggler(busy.due[0], &stop, [traced](bool on) { traced->set_tracing(on); });
    }
    RunWirePhase(clients, singles, &busy);
    stop = true;
    if (toggler.joinable()) toggler.join();
    for (size_t i = 0; i < busy.size(); ++i) busy.traced[i] = InTracedSlice(busy.due[0], busy.due[i]);
  }
  std::vector<CallSpan> busy_calls;
  if (stack->traced) {
    stack->traced->set_tracing(false);
    busy_calls = stack->traced->calls();
    stack->traced->ClearSpans();
  }

  capacity_burst();

  // slo_qps: the highest ladder rate whose p99 (misses as infinite) meets
  // the limit without a growing backlog; the ladder stops at the first miss.
  double slo_qps = 0.0;
  std::vector<RequestLog> ladder;
  for (double rate : kLadder) {
    ladder.push_back(MakeSchedule(rate, 0.05 * S, ++phase_seed, order, &cursor));
    RequestLog& step = ladder.back();
    RunWirePhase(clients, singles, &step);
    CheckAnswers(&step, reference, "point_wire ladder", report);
    double p99 = 0.0;
    const bool measured = DueLatencies(step, /*miss_as_inf=*/true).Quantile(0.99, &p99);
    const size_t from = step.size() * 3 / 4;
    LatencyRecorder last_quarter;
    for (size_t i = from; i < step.size(); ++i) {
      last_quarter.Add(step.outcome[i] == kOk ? DueLatencyUs(step.due[i], step.done[i]) : 1e18);
    }
    const bool meets = measured && p99 <= kSloUs && last_quarter.QuantileOr0(0.5) <= kSloUs;
    std::printf("slo ladder: %.0f q/s  p99 %.1f us  %s\n", rate, p99, meets ? "meets" : "misses");
    if (!meets) break;
    slo_qps = rate;
  }
  capacity_burst();

  CheckAnswers(&idle, reference, "point_wire idle", report);
  CheckAnswers(&busy, reference, "point_wire busy", report);
  std::vector<double> capacity_rates;
  for (RequestLog& burst : capacity) {
    CheckAnswers(&burst, reference, "point_wire capacity", report);
    CountOutcomes(burst, ops);
    const std::vector<double> rates = ClosedLoopRates(burst);
    capacity_rates.insert(capacity_rates.end(), rates.begin(), rates.end());
  }
  CountOutcomes(idle, ops);
  CountOutcomes(busy, ops);
  for (const RequestLog& step : ladder) CountOutcomes(step, ops);

  const LatencyRecorder busy_lat = DueLatencies(busy, false);
  const LatencyRecorder idle_lat = DueLatencies(idle, false);
  SetQuantile(busy_lat, 0.5, 1000, "lat_p50_us", report);
  SetQuantile(busy_lat, 0.99, 1000, "lat_p99_us", report, /*required=*/false);
  SetQuantile(idle_lat, 0.5, 100, "idle_p50_us", report);
  // The window at rank 1 - kQuietPick: the fast end, like every timing here.
  report->Set("qps", PickQuantile(capacity_rates, 1.0 - kQuietPick), "1/s");
  {  // accuracy over the pool: each query's answer counted once
    std::vector<double> qerrors;
    std::vector<uint8_t> seen(pool.size(), 0);
    for (const RequestLog* log : {&idle, &busy}) {
      for (size_t i = 0; i < log->size(); ++i) {
        if (log->outcome[i] != kOk || seen[log->pool[i]]) continue;
        seen[log->pool[i]] = 1;
        qerrors.push_back(QErrorOf(log->answer[i], stack->census.table.num_rows(),
                                   stack->census.pool[log->pool[i]].cardinality));
      }
    }
    ReportQErrors(qerrors, report);
  }
  SetQuantile(idle_lat, 0.99, 1000, "idle_p99_us", report, /*required=*/false);
  report->Set("slo_qps", slo_qps, "1/s");
  report->Set("loadgen.late_p99_us", Lateness(busy).QuantileOr0(0.99), "us");

  const net::NetStats ns = stack->server->stats();
  report->Set("net.bytes_per_query",
              ns.queries > 0 ? static_cast<double>(ns.bytes_in + ns.bytes_out) /
                                   static_cast<double>(ns.queries)
                             : 0.0,
              "B");
  report->Set("net.shed", static_cast<double>(ns.sheds), "count");
  report->Set("net.protocol_errors", static_cast<double>(ns.protocol_errors), "count");
  report->Check(ns.protocol_errors == 0, "point_wire: server counted protocol errors");

  if (stack->traced) {
    // Client spans: round trips at the idle rate (p50) and busy rate (p99).
    LatencyRecorder idle_rtt, busy_rtt;
    for (size_t i = 0; i < idle.size(); ++i) {
      if (idle.outcome[i] == kOk) idle_rtt.Add(static_cast<double>(idle.done[i] - idle.sent[i]) / 1e3);
    }
    for (size_t i = 0; i < busy.size(); ++i) {
      if (busy.outcome[i] == kOk && busy.traced[i]) {
        busy_rtt.Add(static_cast<double>(busy.done[i] - busy.sent[i]) / 1e3);
      }
    }
    report->Set("net.rtt_p50_us", idle_rtt.QuantileOr0(0.5), "us");
    report->Set("net.rtt_p99_us", busy_rtt.QuantileOr0(0.99), "us");
    ReportCallSpans(busy_calls, report);
    spans.Calls("busy", busy_calls);
    spans.Requests("idle", idle);
    spans.Requests("busy", busy);

    // The same idle stream replayed in-process: submit -> model call start
    // is the serve wait; the wire round trip minus submit -> done is the
    // net layer's own share.
    stack->traced->set_tracing(true);
    RequestLog replay = Replay(idle);
    RunSubmitPhase(*stack->engine, pool, &replay);
    stack->traced->set_tracing(false);
    CheckAnswers(&replay, reference, "point_wire in-process replay", report);
    const std::vector<QuerySpan> replay_spans = stack->traced->queries();
    spans.Requests("inproc_idle_replay", replay);
    const std::vector<int64_t> match = MatchCalls(replay, pool, replay_spans);
    LatencyRecorder wait, s2d, model;
    for (size_t i = 0; i < replay.size(); ++i) {
      if (replay.outcome[i] != kOk || match[i] < 0) continue;
      const QuerySpan& sp = replay_spans[static_cast<size_t>(match[i])];
      wait.Add(static_cast<double>(sp.call_start_ns - replay.sent[i]) / 1e3);
      model.Add(static_cast<double>(sp.call_end_ns - sp.call_start_ns) / 1e3);
      s2d.Add(static_cast<double>(replay.done[i] - replay.sent[i]) / 1e3);
    }
    report->Set("serve.wait_p50_us", wait.QuantileOr0(0.5), "us");
    report->Set("serve.wait_p99_us", wait.QuantileOr0(0.99), "us");
    const double rtt50 = idle_rtt.QuantileOr0(0.5);
    const double net_self = rtt50 - s2d.QuantileOr0(0.5);
    report->Set("net.self_p50_us", net_self, "us");

    const double idle50 = idle_lat.QuantileOr0(0.5);
    const double wait50 = wait.QuantileOr0(0.5), model50 = model.QuantileOr0(0.5);
    if (idle50 > 0.0) {
      std::printf(
          "idle_p50_us breakdown (%.1f us): net %.1f%%, serve wait %.1f%%, model call %.1f%%, "
          "other (loadgen + engine callback) %.1f%%\n",
          idle50, 100.0 * net_self / idle50, 100.0 * wait50 / idle50, 100.0 * model50 / idle50,
          100.0 * (idle50 - net_self - wait50 - model50) / idle50);
    }
    report->Set("trace.overhead_pct",
                OverheadPct(DueLatencies(busy, false, 1), DueLatencies(busy, false, 0)), "%");
    CheckSplit(*stack->traced, report);
  }
  ReportServingStats(stack->engine->stats(), report);
  ReportWeightBytes(static_cast<double>(stack->estimator->PackedWeightBytes()), report);
  for (net::RpcClient& c : clients) c.Close();
  stack->server->Stop();
}

// ===========================================================================
// plan_search
// ===========================================================================

constexpr int kStarTables = 4;
constexpr int kStarQueries = 128;
/// Plan searches per quiet window.
constexpr size_t kPlanWindow = 1000;

/// Star-join table over the shared 0..39 key domain (column 0) with two
/// filter columns whose correlation decides how wrong independence is.
data::Table MakeStarTable(const std::string& name, int64_t rows, uint64_t seed,
                          double correlation) {
  data::SyntheticSpec spec;
  spec.name = name;
  spec.rows = rows;
  spec.seed = seed;
  spec.num_latent = 1;
  spec.latent_cardinality = 40;
  spec.columns = {{40, 0.4, 0.3, 0}, {12, 0.6, correlation, 0}, {12, 0.6, correlation, 0}};
  const data::Table generated = data::GenerateSynthetic(spec);
  std::vector<double> shared_domain(40);
  for (int32_t v = 0; v < 40; ++v) shared_domain[static_cast<size_t>(v)] = v;
  std::vector<data::Column> columns;
  for (int c = 0; c < generated.num_columns(); ++c) {
    const data::Column& src = generated.column(c);
    std::vector<int32_t> codes(static_cast<size_t>(generated.num_rows()));
    for (int64_t r = 0; r < generated.num_rows(); ++r) codes[static_cast<size_t>(r)] = src.code(r);
    columns.push_back(data::Column::FromCodes(src.name(), std::move(codes),
                                              c == 0 ? shared_domain : src.distinct()));
  }
  return data::Table(name, std::move(columns));
}

struct PlanStack {
  std::vector<std::unique_ptr<data::Table>> tables;
  std::vector<std::string> keys;
  std::unique_ptr<serve::ModelZoo> zoo;
  std::unique_ptr<serve::ServingEngine> engine;
  /// One provider per table combination (3 of 4, or all 4), keyed by mask.
  std::map<uint32_t, std::unique_ptr<optimizer::ServingCardinalityProvider>> providers;
  std::map<uint32_t, std::unique_ptr<TracedProvider>> traced;
  std::vector<uint32_t> query_mask;
  std::vector<std::unique_ptr<optimizer::JoinOrderPlanner>> planners;
  double cold_load_us = 0.0;
};

void RunPlanSearch(const RunConfig& cfg, Report* report, OpCounts* ops) {
  auto stack = RepeatedSetup<PlanStack>(
      [&](SetupTimes* t) {
        auto s = std::make_unique<PlanStack>();
        const double corr[kStarTables] = {0.95, 0.6, 0.3, 0.0};
        int64_t start = NowNs();
        for (int i = 0; i < kStarTables; ++i) {
          s->tables.push_back(std::make_unique<data::Table>(
              MakeStarTable("star" + std::to_string(i), 3000, kFixtureSeed + i, corr[i])));
        }
        t->table_s = static_cast<double>(NowNs() - start) / 1e9;
        double tps = 0.0;
        std::vector<std::string> paths;
        for (int i = 0; i < kStarTables; ++i) {
          auto model = TrainModel(*s->tables[i], {64, 64}, 1, nullptr, t);
          tps += t->train_tps;
          start = NowNs();
          paths.push_back(cfg.tmpdir + "/star" + std::to_string(i) + ".duet");
          const artifact::ArtifactStatus st =
              artifact::WriteArtifact(paths.back(), *model, tensor::WeightBackend::kDenseF32);
          if (!st.ok) throw std::runtime_error("WriteArtifact: " + st.error);
          t->artifact_ms += static_cast<double>(NowNs() - start) / 1e6;
        }
        t->train_tps = tps / kStarTables;
        start = NowNs();
        serve::ZooOptions zopt;
        zopt.memory_budget_bytes = 256ull << 20;  // fits every model
        s->zoo = std::make_unique<serve::ModelZoo>(zopt);
        for (int i = 0; i < kStarTables; ++i) {
          s->keys.push_back("star-" + std::to_string(i));
          s->zoo->Register(s->keys.back(), paths[static_cast<size_t>(i)]);
          s->zoo->Acquire(s->keys.back());  // first touch: the cold load
        }
        const serve::ZooStats zs = s->zoo->stats();
        s->cold_load_us = zs.loads > 0 ? zs.total_load_micros / static_cast<double>(zs.loads) : 0.0;
        s->engine = std::make_unique<serve::ServingEngine>(*s->zoo);
        for (uint32_t mask = 1; mask < (1u << kStarTables); ++mask) {
          if (__builtin_popcount(mask) < 3) continue;
          std::vector<const data::Table*> tabs;
          std::vector<std::string> keys;
          for (int i = 0; i < kStarTables; ++i) {
            if (!(mask & (1u << i))) continue;
            tabs.push_back(s->tables[static_cast<size_t>(i)].get());
            keys.push_back(s->keys[static_cast<size_t>(i)]);
          }
          s->providers[mask] = std::make_unique<optimizer::ServingCardinalityProvider>(
              *s->engine, keys, optimizer::JoinKeyStats(tabs, 0));
          if (cfg.trace) s->traced[mask] = std::make_unique<TracedProvider>(*s->providers[mask]);
        }
        t->start_ms = static_cast<double>(NowNs() - start) / 1e6;
        // The fixture's star queries and their exact-counting planners.
        start = NowNs();
        Rng rng(kFixtureSeed + 2);
        std::vector<uint32_t> masks;
        for (const auto& [mask, p] : s->providers) masks.push_back(mask);
        for (int q = 0; q < kStarQueries; ++q) {
          const uint32_t mask = masks[rng.UniformInt(masks.size())];
          optimizer::StarJoinQuery star;
          star.join_col = 0;
          for (int i = 0; i < kStarTables; ++i) {
            if (!(mask & (1u << i))) continue;
            const data::Table* tab = s->tables[static_cast<size_t>(i)].get();
            star.tables.push_back(tab);
            query::Query f;
            for (int col = 1; col <= 2; ++col) {
              const data::Column& column = tab->column(col);
              f.predicates.push_back(
                  {col, query::PredOp::kEq,
                   column.Value(static_cast<int32_t>(rng.UniformInt(column.ndv())))});
            }
            star.filters.push_back(f);
          }
          s->query_mask.push_back(mask);
          s->planners.push_back(std::make_unique<optimizer::JoinOrderPlanner>(std::move(star)));
        }
        t->label_s = static_cast<double>(NowNs() - start) / 1e9;
        return s;
      },
      report);
  SpanWriter spans(cfg);
  const size_t nq = stack->planners.size();

  // Checks before timing: the oracle's P-error is exactly 1.0 on every
  // query; the neural provider's plan per query is recorded (every later
  // search must reproduce it) with its P-error and subset q-errors.
  std::vector<std::vector<int>> ref_order(nq);
  std::vector<double> perror(nq), qerrors;
  uint64_t oracle_misses = 0;
  for (size_t q = 0; q < nq; ++q) {
    optimizer::JoinOrderPlanner& planner = *stack->planners[q];
    optimizer::ExactCardinalityProvider oracle(planner.exact());
    if (planner.PlanCostRatio(planner.Plan(oracle).plan) != 1.0) ++oracle_misses;
    optimizer::ServingCardinalityProvider& neural = *stack->providers[stack->query_mask[q]];
    const optimizer::PlanSearchResult res = planner.Plan(neural);
    ref_order[q] = res.plan.order;
    perror[q] = planner.PlanCostRatio(res.plan);
    const int k = planner.num_tables();
    std::vector<uint32_t> subsets;
    for (uint32_t sub = 1; sub < (1u << k); ++sub) subsets.push_back(sub);
    const auto answers = neural.StartPlan(planner.query())->EstimateSubsets(subsets);
    for (size_t i = 0; i < subsets.size(); ++i) {
      qerrors.push_back(query::QError(answers[i].cardinality,
                                      planner.exact().ExactSubsetCard(subsets[i])));
    }
  }
  report->Check(oracle_misses == 0, "plan_search: oracle P-error != 1.0 on " +
                                        std::to_string(oracle_misses) + " queries");
  double perror_sum = 0.0;
  for (double p : perror) perror_sum += p;
  report->Set("perror_mean", perror_sum / static_cast<double>(nq), "ratio");
  ReportQErrors(qerrors, report);

  Rng order_rng(cfg.seed ^ 0x5eed);
  uint64_t wrong_plans = 0, degraded_estimates = 0;
  // One plan search; returns its wall time in microseconds.
  auto plan_once = [&](size_t q, bool traced, optimizer::PlanSearchResult* out) {
    optimizer::CardinalityProvider& provider =
        traced ? static_cast<optimizer::CardinalityProvider&>(*stack->traced[stack->query_mask[q]])
               : *stack->providers[stack->query_mask[q]];
    const int64_t start = NowNs();
    *out = stack->planners[q]->Plan(provider);
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    ops->attempted++;
    if (out->plan.order != ref_order[q]) {
      ++wrong_plans;
      ops->failed++;
    } else if (out->degraded_estimates > 0) {
      ops->degraded++;
    } else {
      ops->succeeded++;
    }
    degraded_estimates += out->degraded_estimates;
    return us;
  };
  auto next_query = [&] { return static_cast<size_t>(order_rng.UniformInt(nq)); };
  const double S = cfg.seconds;
  optimizer::PlanSearchResult res;
  {  // warm-up (not counted)
    const int64_t end = NowNs() + 300000000;
    while (NowNs() < end) {
      const size_t q = next_query();
      stack->planners[q]->Plan(*stack->providers[stack->query_mask[q]]);
    }
  }

  LatencyRecorder idle_lat;
  {
    TightenTimerSlack();
    const int64_t start = NowNs();
    const int n = static_cast<int>(0.2 * S / kPlanIdlePeriodS);
    for (int i = 0; i < n; ++i) {
      const int64_t due = start + static_cast<int64_t>(i * kPlanIdlePeriodS * 1e9);
      SleepUntilNs(due);
      plan_once(next_query(), false, &res);
      idle_lat.Add(DueLatencyUs(due, NowNs()));
    }
  }

  LatencyRecorder lat, lat_on, lat_off, dp_self, estimates;
  double closed_s = 0.0;
  {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(0.8 * S * 1e9);
    int64_t now = start;
    while (now < end) {
      const bool traced = cfg.trace && InTracedSlice(start, now);
      const double us = plan_once(next_query(), traced, &res);
      lat.Add(us);
      (traced ? lat_on : lat_off).Add(us);
      if (traced) {
        dp_self.Add(us - res.estimation_micros);
        estimates.Add(static_cast<double>(res.subset_requests));
      }
      now = NowNs();
    }
    closed_s = static_cast<double>(now - start) / 1e9;
  }
  report->Check(wrong_plans == 0, "plan_search: " + std::to_string(wrong_plans) +
                                      " searches chose a different plan than the first search");
  SetQuantile(lat, 0.5, kPlanWindow, "lat_p50_us", report);
  SetQuantile(lat, 0.99, kPlanWindow, "lat_p99_us", report, /*required=*/false);
  SetQuantile(idle_lat, 0.5, 50, "idle_p50_us", report);
  // Throughput of the same quiet windows: plans over their summed search
  // time (the planner runs back to back), read at the fast end.
  std::vector<double> window_rates;
  for (size_t b = 0; b + kPlanWindow <= lat.count(); b += kPlanWindow) {
    double us = 0.0;
    for (size_t i = b; i < b + kPlanWindow; ++i) us += lat.values()[i];
    window_rates.push_back(static_cast<double>(kPlanWindow) / (us / 1e6));
  }
  report->Set("qps", PickQuantile(window_rates, 1.0 - kQuietPick), "1/s");
  report->Set("plans_per_s_whole_run", static_cast<double>(lat.count()) / closed_s, "1/s");
  report->Set("optimizer.degraded_estimates", static_cast<double>(degraded_estimates), "count");

  const serve::ZooStats zs = stack->zoo->stats();
  const serve::ServingStats ss = stack->engine->stats();
  report->Set("serve.zoo_loads", static_cast<double>(zs.loads), "count");
  report->Set("serve.zoo_evictions", static_cast<double>(zs.evictions), "count");
  // Share of zoo-served queries that found their model resident.
  report->Set("serve.zoo_hit_ratio",
              zs.serves > 0 ? 1.0 - static_cast<double>(zs.loads) / static_cast<double>(zs.serves)
                            : 0.0,
              "ratio");
  report->Set("serve.zoo_cold_load_us", stack->cold_load_us, "us");
  ReportServingStats(ss, report);
  double weight_bytes = 0.0;
  for (const std::string& key : stack->keys) {
    weight_bytes += static_cast<double>(stack->zoo->Acquire(key)->estimator().PackedWeightBytes());
  }
  ReportWeightBytes(weight_bytes, report);
  if (cfg.trace) {
    // Per plan search, the time spent in its DP-level EstimateSubsets
    // bursts (memoized providers submit at the first level only).
    LatencyRecorder fetch;
    double fetches = 0.0, plans = 0.0;
    for (const auto& [mask, tp] : stack->traced) {
      spans.Values("dp_level_fetch", tp->fetch_us());
      for (const PlanSpan& p : tp->plans()) {
        fetch.Add(p.fetch_us);
        fetches += p.fetches;
        plans += 1.0;
      }
    }
    spans.Values("plan_search", lat_on.values());
    report->Set("optimizer.fetch_p50_us", fetch.QuantileOr0(0.5), "us");
    report->Set("optimizer.fetches_per_plan", plans > 0.0 ? fetches / plans : 0.0, "count");
    report->Set("optimizer.estimates_per_plan", estimates.Mean(), "count");
    report->Set("optimizer.dp_self_us", dp_self.QuantileOr0(0.5), "us");
    report->Set("trace.overhead_pct", OverheadPct(lat_on, lat_off), "%");
  }
}

// ===========================================================================
// live_update
// ===========================================================================

struct LiveStack {
  CensusStack census;
  query::Workload feedback;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<serve::UpdateWorker> worker;
};

void RunLiveUpdate(const RunConfig& cfg, Report* report, OpCounts* ops) {
  auto stack = RepeatedSetup<LiveStack>(
      [&](SetupTimes* t) {
        auto s = std::make_unique<LiveStack>();
        BuildCensus(&s->census, t);
        int64_t start = NowNs();
        // Feedback comes from a shifted stream: skewed predicate counts and
        // a bounded column, unlike the uniform serving pool.
        s->feedback = LabelledPool(s->census.table, static_cast<int>(kFeedbackChunks * kFeedbackPerRound),
                                   kFixtureSeed + 3, /*shifted=*/true);
        t->label_s += static_cast<double>(NowNs() - start) / 1e9;
        start = NowNs();
        s->registry = std::make_unique<serve::ModelRegistry>(std::move(s->census.model));
        s->engine = std::make_unique<serve::ServingEngine>(*s->registry);
        serve::UpdateWorkerOptions wopt;
        wopt.min_feedback = kFeedbackPerRound;
        wopt.update.finetune.qerror_threshold = 2.0;
        wopt.update.finetune.max_anchor_rows = 256;
        s->worker = std::make_unique<serve::UpdateWorker>(*s->registry, wopt);
        s->engine->AttachUpdateWorker(s->worker.get());
        t->start_ms = static_cast<double>(NowNs() - start) / 1e6;
        return s;
      },
      report);
  SpanWriter spans(cfg);
  const std::vector<Query> pool = QueriesOf(stack->census.pool);
  const int64_t rows = stack->census.table.num_rows();
  const std::vector<uint32_t> order = PoolOrder(pool.size(), cfg.seed);
  const double S = cfg.seconds;
  size_t cursor = 0;
  uint64_t phase_seed = cfg.seed * 1000003ULL + 7;

  {  // warm-up at the busy rate, not recorded
    RequestLog warm = MakeSchedule(kBusyRate, 0.3, ++phase_seed, order, &cursor);
    RunSubmitPhase(*stack->engine, pool, &warm);
  }
  RequestLog idle = MakeSchedule(kIdleRate, 0.15 * S, ++phase_seed, order, &cursor);
  RunSubmitPhase(*stack->engine, pool, &idle);

  // One update round on the next chunk of the feedback pool (clone,
  // fine-tune, gate, publish); returns its wall time in seconds.
  std::vector<double> publish_us;
  std::vector<double> scored;  // the pool's answers after kScoredRound rounds
  uint64_t alive_max = 0;
  int rounds_run = 0;
  auto update_round = [&] {
    const size_t chunk = static_cast<size_t>(rounds_run % kFeedbackChunks) * kFeedbackPerRound;
    for (int64_t i = 0; i < kFeedbackPerRound; ++i) {
      const auto& lq = stack->feedback[chunk + static_cast<size_t>(i)];
      stack->engine->ReportObserved(lq.query, static_cast<double>(lq.cardinality));
    }
    const uint64_t published_before = stack->registry->stats().published;
    const int64_t t0 = NowNs();
    stack->worker->RunOnce();
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    const serve::RegistryStats rs = stack->registry->stats();
    if (rs.published > published_before) publish_us.push_back(rs.last_publish_micros);
    alive_max = std::max(alive_max, stack->registry->AliveSnapshots());
    if (++rounds_run == kScoredRound) {
      scored = stack->registry->Current()->estimator().EstimateSelectivityBatch(pool);
    }
    return seconds;
  };

  // Busy phase with the writer starting an update round every
  // kUpdatePeriodS from the phase's first due time to its last (at least
  // kScoredRound rounds), so every latency window serves beside one round.
  RequestLog busy = MakeSchedule(kBusyRate, 0.7 * S, ++phase_seed, order, &cursor);
  std::vector<double> busy_round_s;
  std::thread writer([&] {
    const int64_t period = static_cast<int64_t>(kUpdatePeriodS * 1e9);
    for (int r = 0;; ++r) {
      const int64_t due = busy.due.front() + r * period;
      if (r >= kScoredRound && due >= busy.due.back()) break;
      SleepUntilNs(due);
      busy_round_s.push_back(update_round());
    }
  });
  RunSubmitPhase(*stack->engine, pool, &busy);
  writer.join();

  // Update cost: rounds back to back with no read traffic, so the process's
  // CPU time is the writer's.
  std::vector<double> round_s;
  const double cpu_start = ProcessCpuSeconds();
  for (const int64_t end = NowNs() + static_cast<int64_t>(0.15 * S * 1e9);
       NowNs() < end || round_s.size() < kMinUpdateRounds;) {
    round_s.push_back(update_round());
  }
  const double update_cpu_s = ProcessCpuSeconds() - cpu_start;

  // Every answer must be a selectivity; degraded answers are counted.
  uint64_t bad = 0;
  for (RequestLog* log : {&idle, &busy}) {
    for (size_t i = 0; i < log->size(); ++i) {
      if (log->outcome[i] == kOk && !(log->answer[i] >= 0.0 && log->answer[i] <= 1.0)) {
        log->outcome[i] = kFailed;
        ++bad;
      }
    }
    CountOutcomes(*log, ops);
  }
  report->Check(bad == 0, "live_update: " + std::to_string(bad) + " answers outside [0, 1]");
  // Once traffic drains, only the current snapshot may stay alive.
  uint64_t alive = 0;
  for (int i = 0; i < 500 && (alive = stack->registry->AliveSnapshots()) != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  report->Check(alive == 1, "live_update: AliveSnapshots() = " + std::to_string(alive) +
                                " after drain (expected 1)");

  const LatencyRecorder busy_lat = DueLatencies(busy, false);
  SetQuantile(busy_lat, 0.5, kLiveWindow, "lat_p50_us", report);
  SetQuantile(busy_lat, 0.99, kLiveWindow, "lat_p99_us", report, /*required=*/false);
  SetQuantile(DueLatencies(idle, false), 0.5, 200, "idle_p50_us", report);
  // Feedback pairs fine-tuned and published per CPU-second of the update
  // phase. CPU time rather than wall time: the fine-tune's parallel loops
  // wait for the slowest core, so its wall time follows whatever else the
  // host runs (five-run spread 0.1-0.35 on the reference host, against
  // 0.1 for CPU time).
  report->Set("qps", static_cast<double>(kFeedbackPerRound) * static_cast<double>(round_s.size()) /
                         update_cpu_s,
              "1/s");
  {  // accuracy of the snapshot serving after kScoredRound rounds
    std::vector<double> qerrors;
    for (size_t i = 0; i < pool.size(); ++i) {
      qerrors.push_back(QErrorOf(scored[i], rows, stack->census.pool[i].cardinality));
    }
    ReportQErrors(qerrors, report);
  }
  report->Set("update_s", Median(round_s), "s");
  report->Set("update_beside_reads_s", Median(busy_round_s), "s");
  double miss = 0.0;
  for (size_t i = 0; i < busy.size(); ++i) {
    if (busy.outcome[i] != kOk || DueLatencyUs(busy.due[i], busy.done[i]) > kSloUs) miss += 1.0;
  }
  report->Set("slo_miss_frac", busy.size() > 0 ? miss / static_cast<double>(busy.size()) : 0.0, "ratio");
  report->Set("loadgen.late_p99_us", Lateness(busy).QuantileOr0(0.99), "us");

  const serve::UpdateWorkerStats ws = stack->worker->stats();
  report->Set("serve.update_round_s", Median(round_s), "s");
  report->Set("serve.publish_us", Median(publish_us), "us");
  report->Set("serve.updates_published", static_cast<double>(ws.published), "count");
  report->Set("serve.updates_rolled_back", static_cast<double>(ws.rolled_back), "count");
  report->Set("serve.alive_snapshots_max", static_cast<double>(alive_max), "count");
  ReportServingStats(stack->engine->stats(), report);
  ReportWeightBytes(
      static_cast<double>(stack->registry->Current()->estimator().PackedWeightBytes()), report);
  if (cfg.trace) {
    spans.Requests("idle", idle);
    spans.Requests("busy", busy);
    spans.Values("update_round", round_s);
    spans.Values("update_round_beside_reads", busy_round_s);
    // Registry-mode dispatches cannot be wrapped from outside the library,
    // so nothing on this workload's request path is traced: the overhead is
    // the figure of an untraced run.
    report->Set("trace.overhead_pct", 0.0, "%");
  }
  stack->engine->AttachUpdateWorker(nullptr);
}

}  // namespace

void RunWorkload(const RunConfig& config, Report* report, OpCounts* ops) {
  std::printf("workload %s: seed %llu, %.1f s measured, %s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? "traced" : "untraced");
  if (config.workload == "point_wire") {
    std::printf("point_wire: open loop, Poisson arrivals, %d connections, idle %.0f q/s, "
                "busy %.0f q/s, slo ladder up to %.0f q/s; closed-loop capacity bursts\n",
                kConnections, kIdleRate, kBusyRate, kLadder.back());
    RunPointWire(config, report, ops);
  } else if (config.workload == "plan_search") {
    std::printf("plan_search: closed loop, 1 planner thread, %d star queries over %d tables\n",
                kStarQueries, kStarTables);
    RunPlanSearch(config, report, ops);
  } else if (config.workload == "live_update") {
    std::printf("live_update: open loop, Poisson arrivals, 1 generator thread, idle %.0f q/s, "
                "busy %.0f q/s beside an update round of %lld feedback pairs every %.1f s, "
                "then update rounds with no reads\n",
                kIdleRate, kBusyRate, static_cast<long long>(kFeedbackPerRound), kUpdatePeriodS);
    RunLiveUpdate(config, report, ops);
  } else {
    throw std::runtime_error("unknown workload '" + config.workload + "'");
  }
  report->Set("rss_mib", PeakRssMib(), "MiB");
  report->Check(ops->Balanced(), "operation accounting does not balance");
  report->Set("failed_frac", ops->FailedFraction(), "ratio");
}

}  // namespace perfbench
