#!/usr/bin/env python3
"""Benchmark trajectory: records perfbench medians and spreads per commit,
and compares two records against BENCHMARK.json's bounds.

    python3 tools/bench_trajectory.py run --pr <n>
    python3 tools/bench_trajectory.py compare BENCH_<a>.json BENCH_<b>.json

Run from the repository root of the checkout to measure. `run` calls
`perfbench/run.py` for every workload in BENCHMARK.json five times
untraced (seeds 1..5) and once traced, each run BENCHMARK.json's
`run_seconds` long, then writes BENCH_<n>.json: per workload, each end-to-end metric's median, quartiles,
IQR and every run's value, the per-layer medians of the traced runs, the
attempted/failed counts and perfbench's `provenance:` line of every run.
A run that fails its correctness checks aborts the record.

`compare` reads two records (base first), refuses a pair recorded with
different run counts or run lengths, and, per workload and end-to-end
metric, reports the relative move of the median in the metric's worse
direction. A move is flagged when it lies outside both the base's recorded
spread (its IQR) and the metric's BENCHMARK.json bound; a flagged
worsening is a regression, and the exit code is 1 if there is one. A move
inside either the spread or the bound is reported as within noise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5  # untraced runs per workload: the spread needs at least five
TRACED_RUNS = 1  # the per-layer medians come from these


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) by linear interpolation; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_once(workload, seed, seconds, trace):
    """Runs perfbench once; returns (result object, parsed provenance line)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    provenance = next((json.loads(l[len("provenance:"):]) for l in lines
                       if l.startswith("provenance:")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)}: "
                         f"run failed (exit {proc.returncode})")
    return result, provenance


def summarize(samples):
    """Metric name -> {unit, median, q1, q3, iqr, values} over runs."""
    out = {}
    for name in samples[0]:
        values = [s[name]["value"] for s in samples]
        q1, med, q3 = quartiles(values)
        out[name] = {"unit": samples[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "iqr": q3 - q1, "values": values}
    return out


def cmd_run(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    record = {"pr": args.pr, "runs": RUNS, "traced_runs": TRACED_RUNS, "seconds": seconds,
              "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        e2e, per_layer, provenance, attempted, failed = [], [], [], [], []
        for i in range(RUNS):
            result, prov = run_once(name, i + 1, seconds, trace=False)
            e2e.append(result["metrics"])
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            provenance.append(prov)
            print(f"{name} run {i + 1}/{RUNS}: " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        for i in range(TRACED_RUNS):
            result, _ = run_once(name, i + 1, seconds, trace=True)
            per_layer.append(result["metrics"])
        entry = {"provenance": provenance, "attempted": attempted, "failed": failed,
                 "end_to_end": summarize(e2e)}
        if per_layer:
            entry["per_layer"] = {k: {"unit": v["unit"], "median": v["median"]}
                                  for k, v in summarize(per_layer).items()}
        record["workloads"][name] = entry
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


def cmd_compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    for key in ("runs", "seconds"):
        if base.get(key) != new.get(key):
            raise SystemExit(f"records differ in {key}: {base.get(key)} vs {new.get(key)}")
    regressions = 0
    print(f"{'workload':<12} {'metric':<12} {'base':>10} {'new':>10} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            print(f"{name:<12} missing from a record")
            continue
        b_metrics = base["workloads"][name]["end_to_end"]
        n_metrics = new["workloads"][name]["end_to_end"]
        for m in spec["end_to_end"]:
            b, n = b_metrics[m["name"]], n_metrics[m["name"]]
            scale = abs(b["median"]) or 1.0
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n["median"] - b["median"]) / scale  # > 0: got worse
            spread = b["iqr"] / scale
            outside = abs(worse) > spread and abs(worse) > m["bound"]
            if not outside:
                verdict = "within noise"
            elif worse > 0:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "improved"
            print(f"{name:<12} {m['name']:<12} {b['median']:>10.4g} {n['median']:>10.4g} "
                  f"{worse:>+9.1%} {spread:>7.1%} {m['bound']:>6.0%}  {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="measure this checkout and write BENCH_<pr>.json")
    run.add_argument("--pr", type=int, required=True)
    cmp_ = sub.add_parser("compare", help="compare two records, base first")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args()
    if args.mode == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
