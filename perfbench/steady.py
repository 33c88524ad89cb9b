"""Steadiness report: run the benchmark on several seeds and give, per
workload and end-to-end metric, the median and quartiles of the runs.

    python3 perfbench/steady.py [--runs 10] [--first-seed 100] [--workload NAME ...]

By default it covers every workload in ``plan.WORKLOADS``, also those that
``BENCHMARK.json`` does not gate.

Run it from the root of a finmod checkout.  The spread is the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median.  A spread above a tenth is flagged, and so is one
above a third of the metric's bound in ``BENCHMARK.json``, or above the whole
bound; set-up time is exempt from the bound flags, as the benchmark's
acceptance rule exempts it.  The last column gives the spread of the same
metric unscaled (see ``run.scale``), from the runs' ``samples.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run
from plan import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def unscaled(samples):
    """The end-to-end times of one run without scaling to reference speed."""
    latencies = [x for s in samples for x in run.op_latencies(s, scaled=False)]
    return {
        "setup_s": statistics.median(run.setup_seconds(s, scaled=False) for s in samples),
        "ops_per_s": len(latencies) / run.timed_seconds(samples, scaled=False),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": run.tail(latencies)[0] * 1e3,
        "peak_rss_mb": max(s["maxrss_kb"] for s in samples) / 1024,
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default every workload")
    args = ap.parse_args()

    workloads = args.workload or WORKLOADS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | flag | unscaled spread |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        runs, raw, walls = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.monotonic() - start)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            runs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
            with open(os.path.join(run.OUT, f"{workload}-seed{seed}", "samples.json")) as f:
                raw.append(unscaled(json.load(f)["untraced"]))
        for name, bound in bounds.items():
            q1, med, q3, scaled_spread = spread([r[name]["value"] for r in runs])
            flags = []
            if scaled_spread > 0.10:
                flags.append("above 0.10")
            if name != "setup_s" and scaled_spread > bound / 3:
                flags.append("above bound" if scaled_spread > bound else "above bound/3")
            print(f"| {workload} | {name} | {runs[0][name]['unit']} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {scaled_spread:.3f} | {bound} | {', '.join(flags)} | "
                  f"{spread([r[name] for r in raw])[3]:.3f} |", flush=True)
        print(f"| {workload} | run wall time | s | {statistics.median(walls):.1f} | "
              f"{min(walls):.1f} (min) | {max(walls):.1f} (max) | | | | |", flush=True)


if __name__ == "__main__":
    main()
