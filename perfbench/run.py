#!/usr/bin/env python3
"""Repository benchmark entry point: builds the measuring program from source
and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in the duet library from ../src unchanged) under
.bench_build/perfbench; later runs reuse that build. Before measuring, the
harness's own tests run (perfbench/tests/harness_test.cc).

The measuring program reports every metric it measured; this script keeps
the ones BENCHMARK.json declares. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
untraced (every one must have been measured), the per-layer metrics traced
(one the workload does not touch reads 0). The exit code is 0 only when the
build, the harness tests and every correctness check of the run passed and
the measured units match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, base)  # an absolute base stays as given
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; build chatter -> stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench", "perfbench_selftest",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def provenance():
    """Commit (when the checkout is a git repository) and a digest of the
    library sources, so a result names the code it measured either way."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_child(cmd):
    """Runs cmd, returning (exit code, stdout); the child never outlives us."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def stop(signum, frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, out
    return child.returncode, out


def select_metrics(result, spec, trace):
    """Narrows result["metrics"] to BENCHMARK.json's end-to-end (untraced)
    or per-layer (traced) list. Returns a problem, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "no operation attempted"
    measured = result["metrics"]
    selected = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                return f"end-to-end metric {m['name']} not measured"
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}"
        selected[m["name"]] = got
    result["metrics"] = selected
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2

    out_dir = build_dir()
    if not build(out_dir):
        log("build failed")
        return 1
    selftest = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("harness self-test failed")
        return 1

    workdir = os.path.join(out_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--provenance", json.dumps(provenance())]
    code, out = run_child(cmd)
    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        if lines:
            print(lines[-1])
        log(f"no result line (exit {code})")
        return code or 1
    problem = select_metrics(result, spec, bool(args.trace))
    if problem:
        log(problem)
        return 1
    print(json.dumps(result), flush=True)
    if code != 0 or not result["correct"]:
        log(f"correctness checks failed (exit {code})")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
