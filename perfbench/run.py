#!/usr/bin/env python3
"""End-to-end benchmark of the rings-of-neighbors stack.

Run from the repository root:

    python3 perfbench/run.py --workload dist-landmark --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

It builds perfbench/ronbench.exe with dune, then runs the workload in
PROCESSES fresh processes. Each sets the workload up (graph -> scheme ->
export -> freeze -> save -> load) and measures for --seconds / PROCESSES
in rounds, so the measured time is spread over several set-ups; the first
also checks every answer it can against ground truth. latency_p50_ns is
the median over the pooled rounds, setup_s and peak_rss_mb medians over
the processes, delivered_frac and stretch_mean the first process's. With
--trace 1 a further traced process reports the per-layer metrics, and each
end-to-end metric's traced-over-untraced ratio minus 1 as its tracing
overhead.

It prints each metric by name with its unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. It exits
1 when a correctness check fails and 2 when it cannot build or run.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["dist-landmark", "route-basic", "locate-meridian-obs", "churn-basic"]
PROCESSES = 3
# Metrics scored against ground truth, by the first process only.
CHECKED = ("delivered_frac", "stretch_mean")
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "ronbench.exe")
RUN_BUDGET_S = 170.0


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]], units


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project and lib/ are missing here")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ronbench.exe"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("dune build failed")


def child_env():
    # RON_* variables select library modes (job count, shortest-path
    # backend, oracle size); the benchmark pins its own.
    return {k: v for k, v in os.environ.items() if not k.startswith("RON_")}


def child(deadline, workload, seed, seconds, check, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--dir", OUT_DIR,
           "--seconds", str(seconds), "--check", str(check), "--trace", str(trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before %s" % workload)
    try:
        r = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=remaining, env=child_env()
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited %d without a result" % (workload, r.returncode))
    if not out["correct"]:
        for c in out["checks"]:
            if not c["ok"]:
                print("  FAILED check: " + c["name"])
    return out


def run_workload(deadline, workload, seed, seconds, trace, spec):
    e2e_names, layer_names, units = spec
    share = seconds / PROCESSES
    runs = [child(deadline, workload, seed, share, int(i == 0), 0) for i in range(PROCESSES)]
    e2e = {}
    for name in e2e_names:
        if name in CHECKED:
            e2e[name] = runs[0]["metrics"][name]
        else:
            pooled = [v for r in runs for v in r["rounds"].get(name, [])]
            e2e[name] = statistics.median(pooled or [r["metrics"][name] for r in runs])
    print("  %d processes, %d rounds; setup_s per process: %s" % (
        len(runs), sum(len(r["rounds"]["latency_p50_ns"]) for r in runs),
        " ".join("%.3f" % r["metrics"]["setup_s"] for r in runs)))
    metrics = e2e
    if trace:
        traced = child(deadline, workload, seed, share, 1, 1)
        runs.append(traced)
        metrics = dict(traced["layers"])
        for name, value in e2e.items():
            metrics["trace.overhead." + name] = traced["metrics"][name] / value - 1.0
        print("  spans written to " + traced["spans"])
    missing = set(metrics) ^ set(layer_names if trace else e2e_names)
    if missing:
        fail("metric names disagree with BENCHMARK.json: %s" % sorted(missing))
    print("%s (seed %d, %d domains, %s):" % (
        workload, seed, runs[0]["domains"], "per-layer, traced" if trace else "end to end"))
    for name in sorted(metrics):
        print("  %-36s %16.6g %s" % (name, metrics[name], units[name]))
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": runs[0]["attempted"],
        "failed": runs[0]["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if a.workload == "all" else [a.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        results = {w: run_workload(deadline, w, a.seed, a.seconds, a.trace, spec) for w in names}
    finally:
        for f in glob.glob(os.path.join(OUT_DIR, "*.snap")):
            os.remove(f)
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                w + "." + k: v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
