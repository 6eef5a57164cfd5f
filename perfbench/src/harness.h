// Measurement harness of the repository benchmark: exact latency
// recording with an honest percentile rule, an open-loop arrival schedule
// timed from due times, operation accounting, and the metric report.
//
// Everything here is independent of the duet library so the harness can be
// unit-tested on its own (tests/harness_test.cc).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Sleeps until the monotonic time `due_ns` (returns at once when late).
void SleepUntilNs(int64_t due_ns);

/// Lowers this thread's timer slack to 1 ns so sleeps wake on time; the
/// default 50 us slack would otherwise be billed to every paced request.
void TightenTimerSlack();

/// Exact latency samples (no bucketing): every value recorded is kept, so a
/// 10% shift in any percentile shows as 10%.
class LatencyRecorder {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

  /// The nearest-rank `q` quantile (q in (0, 1)). Returns false — and
  /// leaves *out untouched — unless at least kMinBeyond samples lie above
  /// the quantile's rank, so a tail percentile is never read off a handful
  /// of samples.
  bool Quantile(double q, double* out) const;
  /// Quantile() that returns 0 when the rule refuses (for gauges that are
  /// allowed to be absent).
  double QuantileOr0(double q) const;
  double Mean() const;
  /// Quiet-window quantile, the estimator for timings on a shared host:
  /// the samples, in recording order, are cut into consecutive windows of
  /// `window` samples (the remainder joins the last window), the `q`
  /// quantile is taken in each window under Quantile()'s rule, and the
  /// window at rank `pick` of those per-window values is returned
  /// (PickQuantile). Interference from other tenants only ever adds time,
  /// so a low `pick` reads the code's own cost off the quieter windows
  /// while a code change shifts every window alike. With one window it is
  /// exactly Quantile().
  bool QuietQuantile(double q, size_t window, double pick, double* out) const;

  static constexpr size_t kMinBeyond = 10;
  /// Samples needed before quantile `q` may be reported.
  static size_t MinSamplesFor(double q);

 private:
  std::vector<double> values_;
};

/// The value at nearest rank `pick` (in [0, 1]) of `values`, without the
/// ten-beyond rule: it selects one of a run's windows, it does not claim a
/// tail percentile. 0 for no values.
double PickQuantile(std::vector<double> values, double pick);

/// Open-loop arrivals: a Poisson process at a fixed absolute rate, drawn
/// from a seed, so the offered load never depends on the code under test.
/// Due times are offsets in nanoseconds from the phase start.
std::vector<int64_t> PoissonDueTimes(double rate_per_s, double seconds, uint64_t seed);

/// Latency of one open-loop request, in microseconds, measured from its due
/// time (not from when the generator got round to sending it), so a stalled
/// generator or a busy connection shows up as latency instead of hiding.
inline double DueLatencyUs(int64_t due_ns, int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e3;
}
/// How late the generator issued a request, in microseconds (>= 0).
inline double LatenessUs(int64_t due_ns, int64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) / 1e3 : 0.0;
}

/// Operation accounting: every attempted operation ends as exactly one of
/// succeeded, degraded (answered, but flagged fallback / shed / expired) or
/// failed (no usable answer, or a wrong one).
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t degraded = 0;
  uint64_t failed = 0;

  /// attempted == succeeded + degraded + failed.
  bool Balanced() const { return attempted == succeeded + degraded + failed; }
  /// Operations that did not succeed, over operations attempted.
  double FailedFraction() const;
};

/// A named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set plus the checks that decide `correct`.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Records a failed correctness check (printed, and makes correct false).
  void Fail(const std::string& what);
  /// Records a check; fails with `what` when `ok` is false.
  void Check(bool ok, const std::string& what);
  bool correct() const { return violations_.empty(); }

  /// The result line: {"correct", "attempted", "failed", "metrics"}, with
  /// every metric set.
  std::string ResultJson(const OpCounts& ops) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> violations_;
};

/// Formats a double for JSON with all significant digits (non-finite
/// values become 0, which JSON cannot otherwise carry).
std::string JsonNumber(double v);
/// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
