// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and runs it once per (workload, seed); see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--provenance <json>]
//
// stdout: progress, every metric as "name value unit" lines, one provenance
// line, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"} with every metric the run
// measured (run.py keeps the ones BENCHMARK.json declares). Exit code 0
// only when every correctness check passed.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "tensor/simd_dispatch.h"
#include "workloads.h"

namespace {

struct Args {
  perfbench::RunConfig config;
  std::string workdir = ".";
  std::string provenance = "{}";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") args->config.workload = value;
      else if (key == "--seed") args->config.seed = std::stoull(value);
      else if (key == "--seconds") args->config.seconds = std::stod(value);
      else if (key == "--trace") args->config.trace = value == "1";
      else if (key == "--workdir") args->workdir = value;
      else if (key == "--provenance") args->provenance = value;
      else return false;
    } catch (const std::exception&) {  // std::stoull / std::stod on bad input
      return false;
    }
  }
  return argc % 2 == 1 && !args->config.workload.empty() && args->config.seconds >= 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir> [--provenance <json>]\n");
    return 2;
  }
  RunConfig& config = args.config;
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(args.workdir) / ("run-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  config.tmpdir = tmp.string();
  config.trace_dir = (fs::path(args.workdir) / "traces").string();
  if (config.trace) fs::create_directories(config.trace_dir);

  Report report;
  OpCounts ops;
  int status = 0;
  try {
    RunWorkload(config, &report, &ops);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(tmp, ec);
  if (status != 0) return status;

  std::printf("metrics:\n");
  for (const auto& [name, m] : report.metrics()) {
    std::printf("  %-32s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu = succeeded %llu + degraded %llu + failed %llu\n",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.succeeded),
              static_cast<unsigned long long>(ops.degraded),
              static_cast<unsigned long long>(ops.failed));
  std::printf("provenance: {\"build\": %s, \"isa\": %s, \"hw_threads\": %u, \"workload\": %s, "
              "\"seed\": %llu, \"seconds\": %s, \"trace\": %s, \"attempted\": %llu}\n",
              args.provenance.c_str(), JsonString(duet::tensor::simd::ActiveIsaName()).c_str(),
              std::thread::hardware_concurrency(), JsonString(config.workload).c_str(),
              static_cast<unsigned long long>(config.seed), JsonNumber(config.seconds).c_str(),
              config.trace ? "true" : "false", static_cast<unsigned long long>(ops.attempted));
  std::printf("%s\n", report.ResultJson(ops).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
