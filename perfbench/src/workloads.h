// The benchmark's workloads over the duet library's public API
// (perfbench/README.md).
//
//   point_wire    open loop, batch-1 DuetRpc requests over loopback (4
//                 connections) against a fixed-estimator engine
//   plan_search   closed loop, one planner thread running provider-driven
//                 join ordering through a zoo-mode engine
//   live_update   open loop, in-process SubmitWithCallback traffic on a
//                 registry-mode engine while an UpdateWorker fine-tunes and
//                 publishes
//
// Each workload reports every metric it measures, and when tracing the
// per-layer ones that apply to it; run.py picks the metrics BENCHMARK.json
// declares and reports a per-layer one a workload does not touch as 0.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (artifacts, trace output); the caller
  /// creates it and removes it at exit.
  std::string tmpdir;
  /// Where span files are written when tracing (kept after the run).
  std::string trace_dir;
};

/// Runs one workload; fills `report` and `ops`. Human-readable progress and
/// the workload-specific figures go to stdout as "name value unit" lines.
void RunWorkload(const RunConfig& config, Report* report, OpCounts* ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
