// Observability surface of the network front-end (net/server.h).
//
// Counters are cumulative since Start(); latency percentiles come from
// per-endpoint common/latency_histogram.h histograms — the histogram
// ServingStats uses, so wire-side p50/p99/p999 is directly comparable with
// the engine's in-process latency_p50/p99/p999_us at the same quantile set.
// bench/bench_net.cc exports the whole struct in its JSON line
// (docs/benchmarks.md).
#ifndef DUET_NET_NET_STATS_H_
#define DUET_NET_NET_STATS_H_

#include <cstdint>

#include "common/latency_histogram.h"

namespace duet::net {

/// Per-endpoint counters + latency percentiles. The estimate endpoint
/// measures decode-complete -> response-encoded per request frame; the
/// snapshot endpoint measures request -> final stream frame enqueued.
struct EndpointStats {
  uint64_t requests = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

/// Cumulative front-end counters plus point-in-time gauges.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;   ///< clean closes (client EOF / Stop)
  /// Connections dropped by the server: every protocol error (bad magic /
  /// version / checksum, oversized frame) closes its connection.
  uint64_t connections_dropped = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  /// Estimate-request frames carrying >= 2 queries: wire-level batching in
  /// effect (one frame -> one micro-batcher group candidate).
  uint64_t batched_frames = 0;
  uint64_t queries = 0;  ///< estimate queries decoded off the wire
  /// Queries answered by the front-end's own admission control (per-
  /// connection / global in-flight budget overflow): served through
  /// ServingEngine::ShedBatch, flagged shed + fallback on the wire.
  uint64_t sheds = 0;
  /// Frames rejected by validation (each also drops its connection).
  uint64_t protocol_errors = 0;
  uint64_t snapshot_streams = 0;          ///< streams completed
  uint64_t snapshot_stream_failures = 0;  ///< aborted mid-stream (fault/I/O)
  uint64_t snapshot_bytes_sent = 0;
  /// In-flight estimate queries (submitted to the engine, response not yet
  /// encoded) when stats() was taken / deepest ever observed.
  int64_t inflight = 0;
  int64_t inflight_high_water = 0;
  EndpointStats estimate;
  EndpointStats snapshot;
};

}  // namespace duet::net

#endif  // DUET_NET_NET_STATS_H_
