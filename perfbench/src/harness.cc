#include "harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
}

void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

namespace {
/// 1-based nearest rank of quantile q among n samples.
size_t NearestRank(double q, size_t n) {
  const double k = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::max(1.0, k));
}
}  // namespace

size_t LatencyRecorder::MinSamplesFor(double q) {
  size_t n = kMinBeyond + 1;
  while (n - NearestRank(q, n) < kMinBeyond) ++n;
  return n;
}

bool LatencyRecorder::Quantile(double q, double* out) const {
  const size_t n = values_.size();
  if (n == 0) return false;
  const size_t rank = NearestRank(q, n);
  if (n - rank < kMinBeyond) return false;
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1), sorted.end());
  *out = sorted[rank - 1];
  return true;
}

double LatencyRecorder::QuantileOr0(double q) const {
  double v = 0.0;
  return Quantile(q, &v) ? v : 0.0;
}

bool LatencyRecorder::QuietQuantile(double q, size_t window, double pick, double* out) const {
  const size_t n = values_.size();
  if (window == 0 || n < 2 * window) return Quantile(q, out);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= n; begin += window) {
    const size_t end = begin + 2 * window > n ? n : begin + window;
    LatencyRecorder part;
    part.values_.assign(values_.begin() + static_cast<long>(begin),
                        values_.begin() + static_cast<long>(end));
    double v = 0.0;
    if (!part.Quantile(q, &v)) return false;
    per_window.push_back(v);
  }
  *out = PickQuantile(std::move(per_window), pick);
  return true;
}

double PickQuantile(std::vector<double> values, double pick) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = NearestRank(std::min(1.0, std::max(0.0, pick)), values.size());
  return values[rank - 1];
}

double LatencyRecorder::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

std::vector<int64_t> PoissonDueTimes(double rate_per_s, double seconds, uint64_t seed) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  double t = gap(gen);
  while (t < seconds) {
    due.push_back(static_cast<int64_t>(t * 1e9));
    t += gap(gen);
  }
  return due;
}

double OpCounts::FailedFraction() const {
  if (attempted == 0) return 0.0;
  return static_cast<double>(degraded + failed) / static_cast<double>(attempted);
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  violations_.push_back(what);
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::ResultJson(const OpCounts& ops) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.degraded + ops.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
