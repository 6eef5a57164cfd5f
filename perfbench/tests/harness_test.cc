// Tests of the benchmark harness itself: the percentile rule, due-time
// latency accounting, the open-loop schedule and the operation
// conservation arithmetic. Built as perfbench_selftest; run.py runs it
// before every measurement and a failure stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s)\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::LatencyRecorder;

LatencyRecorder Ramp(int n) {
  LatencyRecorder rec;
  for (int i = 1; i <= n; ++i) rec.Add(i);  // values 1..n
  return rec;
}

void PercentileRule() {
  // p99 needs at least 10 samples beyond its rank: 1000 samples is the
  // smallest count that has them (rank 990, ten above).
  EXPECT(LatencyRecorder::MinSamplesFor(0.99) == 1000);
  EXPECT(LatencyRecorder::MinSamplesFor(0.5) == 20);
  double v = -1.0;
  EXPECT(!Ramp(999).Quantile(0.99, &v));
  EXPECT(v == -1.0);  // untouched on refusal
  EXPECT(Ramp(1000).Quantile(0.99, &v));
  EXPECT(v == 990.0);
  EXPECT(Ramp(2000).Quantile(0.99, &v) && v == 1980.0);
  EXPECT(Ramp(19).QuantileOr0(0.5) == 0.0);
  EXPECT(Ramp(20).Quantile(0.5, &v) && v == 10.0);
  // Exact samples: a 10% shift of every latency shifts the percentile 10%.
  LatencyRecorder shifted;
  for (int i = 1; i <= 1000; ++i) shifted.Add(1.1 * i);
  EXPECT(shifted.Quantile(0.99, &v) && std::fabs(v - 1.1 * 990) < 1e-9);
  EXPECT(LatencyRecorder().QuantileOr0(0.5) == 0.0);
}

void QuietQuantile() {
  // Five windows of 1000; two carry a stall (every sample 10 ms). The
  // quiet-window p99 at pick 0.1 reads a clean window; at pick 0.9 a
  // stalled one.
  LatencyRecorder rec;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) rec.Add(w == 1 || w == 3 ? 10000.0 : i);
  }
  double v = 0.0;
  EXPECT(rec.QuietQuantile(0.99, 1000, 0.1, &v) && v == 990.0);
  EXPECT(rec.QuietQuantile(0.99, 1000, 0.9, &v) && v == 10000.0);
  // Fewer than two windows: exactly the plain quantile.
  double plain = 0.0;
  EXPECT(Ramp(1500).QuietQuantile(0.99, 1000, 0.1, &v) && Ramp(1500).Quantile(0.99, &plain) &&
         v == plain);
  // The remainder joins the last window, which keeps the ten-beyond rule.
  EXPECT(Ramp(2500).QuietQuantile(0.5, 1000, 0.1, &v));
  EXPECT(!Ramp(999).QuietQuantile(0.99, 1000, 0.1, &v));
}

void PickQuantileRule() {
  EXPECT(perfbench::PickQuantile({5, 1, 4, 2, 3}, 0.0) == 1.0);
  EXPECT(perfbench::PickQuantile({5, 1, 4, 2, 3}, 0.5) == 3.0);
  EXPECT(perfbench::PickQuantile({5, 1, 4, 2, 3}, 1.0) == 5.0);
  EXPECT(perfbench::PickQuantile({}, 0.5) == 0.0);
}

void DueTimeAccounting() {
  // A request due at t=1 ms that the generator only sent at t=3 ms and that
  // completed at t=3.5 ms took 2.5 ms, not 0.5 ms: the stall is billed.
  const int64_t due = 1000000, sent = 3000000, done = 3500000;
  EXPECT(perfbench::DueLatencyUs(due, done) == 2500.0);
  EXPECT(perfbench::LatenessUs(due, sent) == 2000.0);
  EXPECT(perfbench::LatenessUs(due, due - 5) == 0.0);  // early is not late
}

void PoissonSchedule() {
  const std::vector<int64_t> a = perfbench::PoissonDueTimes(1000.0, 2.0, 7);
  const std::vector<int64_t> b = perfbench::PoissonDueTimes(1000.0, 2.0, 7);
  const std::vector<int64_t> c = perfbench::PoissonDueTimes(1000.0, 2.0, 8);
  EXPECT(a == b);  // same seed, same arrivals
  EXPECT(a != c);
  EXPECT(a.size() > 1800 && a.size() < 2200);  // ~rate x seconds
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] >= a[i - 1];
  EXPECT(sorted && a.back() < 2000000000);
  EXPECT(perfbench::PoissonDueTimes(0.0, 1.0, 1).empty());
}

void Conservation() {
  perfbench::OpCounts ops;
  ops.attempted = 10;
  ops.succeeded = 7;
  ops.degraded = 2;
  ops.failed = 1;
  EXPECT(ops.Balanced());
  EXPECT(std::fabs(ops.FailedFraction() - 0.3) < 1e-12);
  ops.attempted++;  // an operation that ended nowhere
  EXPECT(!ops.Balanced());
  EXPECT(perfbench::OpCounts().FailedFraction() == 0.0);
}

void ResultLine() {
  perfbench::Report report;
  report.Set("lat_p50_us", 1.25, "us");
  report.Set("other", 3.0, "count");
  perfbench::OpCounts ops;
  ops.attempted = 4;
  ops.succeeded = 3;
  ops.degraded = 1;
  const std::string line = report.ResultJson(ops);
  EXPECT(line == "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": "
                 "{\"lat_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, "
                 "\"other\": {\"value\": 3, \"unit\": \"count\"}}}");
  report.Check(false, "a deliberately violated check (expected in this test)");
  EXPECT(!report.correct());
  EXPECT(report.ResultJson(ops).rfind("{\"correct\": false", 0) == 0);
}

}  // namespace

int main() {
  PercentileRule();
  QuietQuantile();
  PickQuantileRule();
  DueTimeAccounting();
  PoissonSchedule();
  Conservation();
  ResultLine();
  if (failures == 0) std::fprintf(stderr, "perfbench_selftest: all harness tests passed\n");
  return failures == 0 ? 0 : 1;
}
