// Log-bucketed latency histogram shared by the in-process serving engine
// (serve/serving_engine.h) and the network front-end (net/net_stats.h), so
// in-process and wire-side p50/p99/p999 are directly comparable.
//
// Bucket b counts samples in [2^(b-1), 2^b) microseconds (bucket 0 holds
// 0 us); a quantile is reported as the upper bound of the bucket it falls
// in, so values have ~2x resolution. Not synchronized: callers record under
// their own lock or into a per-thread instance and MergeFrom.
#ifndef DUET_COMMON_LATENCY_HISTOGRAM_H_
#define DUET_COMMON_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace duet {

struct LatencyHistogram {
  std::array<uint64_t, 40> buckets{};
  uint64_t count = 0;

  void Record(int64_t micros) {
    if (micros < 0) micros = 0;
    size_t bucket = 0;
    while (bucket + 1 < buckets.size() && (micros >> bucket) > 0) ++bucket;
    ++buckets[bucket];
    ++count;
  }

  void MergeFrom(const LatencyHistogram& other) {
    for (size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
    count += other.count;
  }

  /// Upper bound of the bucket containing quantile `q` in [0, 1] (0 with no
  /// samples).
  double Quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    double seen = 0.0;
    for (size_t b = 0; b < buckets.size(); ++b) {
      seen += static_cast<double>(buckets[b]);
      if (seen >= target) return static_cast<double>(1LL << b);
    }
    return static_cast<double>(1LL << (buckets.size() - 1));
  }
};

}  // namespace duet

#endif  // DUET_COMMON_LATENCY_HISTOGRAM_H_
