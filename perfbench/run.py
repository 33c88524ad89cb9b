"""finmod benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a finmod checkout.  Every sample is a fresh
interpreter (``sample.py``) that imports finmod from ``src/``, builds its
inputs from the seed, times the ops of one task and checks every answer.  A
run makes whole passes over the workload (``plan.pass_tasks``), as many as
fit in ``--seconds`` at the nominal pace, and at least one.

Every time reported is scaled to a host of fixed speed.  Each sample runs a
fixed calibration loop every quarter second (``sample.Calibrator``); a time
is multiplied by ``plan.CALIBRATION_REF_S`` over the mean calibration time
over its interval (``scale``).

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it makes one pass and runs each task twice, untraced and then traced.  It
prints the per-layer metrics and the tracing overhead, and writes the span
dumps and the per-layer table under ``perfbench/out/``.  Every run writes
what its samples measured to ``perfbench/out/<workload>-seed<seed>/``
``samples.json``.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
op and every output check passed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from plan import (
    CALIBRATION_REF_S, END_TO_END, LAYERS, TRACED, WORKLOADS, pass_tasks, passes,
    per_layer_metrics, span_name,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SAMPLE_TIMEOUT_S = 170


def tail(latencies):
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile with at least ten samples beyond it, or the maximum when there
    are fewer than eleven samples."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def calibration(points, t0, t1):
    """Mean calibration seconds over [t0, t1]: the calibration times,
    placed at the middle of each calibration, interpolated linearly and
    held constant before the first and after the last."""
    xs = [(start + end) / 2 for start, end, _ in points]
    ys = [c for _, _, c in points]

    def at(t):
        i = bisect.bisect_right(xs, t)
        if i == 0:
            return ys[0]
        if i == len(xs):
            return ys[-1]
        w = (t - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + w * (ys[i] - ys[i - 1])

    if t1 <= t0:
        return at(t0)
    ts = [t0] + xs[bisect.bisect_right(xs, t0):bisect.bisect_left(xs, t1)] + [t1]
    area = sum((b - a) * (at(a) + at(b)) / 2 for a, b in zip(ts, ts[1:]))
    return area / (t1 - t0)


def scale(calibration_s):
    """Factor that turns a time measured at this calibration into the time
    on the reference host."""
    return CALIBRATION_REF_S / calibration_s


def setup_seconds(sample, scaled=True):
    """A sample's set-up time, less its calibrations, scaled by the
    calibrations over it."""
    t = sample["ready"] - sample["start"] - sample["setup_calibration_s"]
    if scaled:
        t *= scale(calibration(sample["calibrations"], sample["start"], sample["ready"]))
    return t


def call_scales(sample):
    return [scale(calibration(sample["calibrations"], t0, t1))
            for t0, t1, _, _ in sample["calls"]]


def op_latencies(sample, scaled=True):
    """A sample's op latencies, each scaled by the calibrations over its
    call."""
    if not scaled:
        return sample["latencies"]
    per_op = [f for f, (_, _, _, n) in zip(call_scales(sample), sample["calls"]) for _ in range(n)]
    return [t * f for t, f in zip(sample["latencies"], per_op)]


def timed_seconds(samples, scaled=True):
    """Wall time of the samples' op calls, less calibrations, optionally
    scaled."""
    total = 0.0
    for s in samples:
        scales = call_scales(s) if scaled else [1.0] * len(s["calls"])
        total += sum((t1 - t0 - inside) * f for (t0, t1, inside, _), f in zip(s["calls"], scales))
    return total


def run_sample(task, env):
    """Run one task in a fresh interpreter; its set-up time is measured from
    just before the process starts to the start of its timed phase."""
    start = time.monotonic()  # the same clock as the sample's
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sample.py"), json.dumps(task)],
        env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"sample {task} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["start"] = start
    return out


def timed_scale(samples):
    """The scale of the samples' op time as a whole."""
    return timed_seconds(samples) / timed_seconds(samples, scaled=False)


def end_to_end(samples):
    latencies = [x for s in samples for x in op_latencies(s)]
    raw = [x for s in samples for x in op_latencies(s, scaled=False)]
    tail_s, tail_pct, beyond = tail(latencies)
    cal = CALIBRATION_REF_S / timed_scale(samples)
    values = {
        "setup_s": statistics.median(setup_seconds(s) for s in samples),
        "ops_per_s": len(latencies) / timed_seconds(samples),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(s["maxrss_kb"] for s in samples) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(samples)} set-ups; "
                   f"unscaled {statistics.median(setup_seconds(s, False) for s in samples):.6g}",
        "ops_per_s": f"unscaled {len(raw) / timed_seconds(samples, scaled=False):.6g}; "
                     f"calibration {cal * 1e3:.4g} ms, reference {CALIBRATION_REF_S * 1e3:.4g} ms",
        "op_p50_ms": f"{len(latencies)} ops; unscaled {statistics.median(raw) * 1e3:.6g}",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(latencies)} ops, {beyond} beyond; "
                      f"unscaled {tail(raw)[0] * 1e3:.6g}",
        "peak_rss_mb": "largest sample process",
    }
    return {name: (values[name], unit, notes.get(name, "")) for name, unit in END_TO_END}


def per_layer(untraced, traced, statement_ids):
    """Per-layer metrics of a traced run.  Times per statement and CPU come
    from the untraced samples, everything else from the traced ones.  Times
    are scaled to reference speed like the end-to-end ones."""
    untraced_scale = timed_scale(untraced)
    traced_scale = timed_scale(traced)
    values = {}
    functions = {}
    for s in traced:
        for name, f in s["trace"]["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(f, 0))
            for k, v in f.items():
                acc[k] += v
    for module, attr, fields in TRACED:
        name = span_name(module, attr)
        f = functions[name]
        for field in fields:
            if field == "builds":
                values[f"{name}.builds"] = f["calls"]
            elif field == "repeat_frac":
                values[f"{name}.repeat_frac"] = f["repeats"] / f["calls"] if f["calls"] else 0.0
            elif field == "self_s":
                values[f"{name}.self_s"] = f["self_s"] * traced_scale
            else:
                values[f"{name}.{field}"] = f[field]
    for sid in statement_ids:
        values[f"harness.check.{sid}.s"] = sum(
            s["check_s"][sid] for s in untraced) * untraced_scale
    values["harness.cpu_s"] = sum(s["cpu_s"] for s in untraced) * untraced_scale
    traced_cpu = sum(s["cpu_s"] for s in traced)
    for layer in LAYERS:
        timed = sum(s["trace"]["layers"][f"timed.{layer}"] for s in traced)
        values[f"{layer}.self_share"] = 100.0 * timed / traced_cpu
        values[f"setup.{layer}.self_s"] = sum(
            s["trace"]["layers"][f"setup.{layer}"] * setup_seconds(s) / setup_seconds(s, False)
            for s in traced)
    untraced_s = timed_seconds(untraced)
    traced_s = timed_seconds(traced)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return values


def statement_ids(env):
    proc = subprocess.run(
        [sys.executable, "-c", "import finmod; print(' '.join(finmod.STATEMENT_IDS))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.split()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "finmod", "__init__.py")):
        sys.exit(f"no finmod sources under {SRC}: run from the root of a finmod checkout")
    env = dict(os.environ, PYTHONPATH=SRC)
    # Importing once compiles finmod's bytecode, so no sample pays for that.
    ids = statement_ids(env)

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # A traced run makes one pass, each task untraced and then traced.
    n_passes = 1 if args.trace else passes(args.workload, args.seconds)
    tasks = [t for _ in range(n_passes) for t in pass_tasks(args.workload, args.seed)]
    untraced, traced = [], []
    for i, t in enumerate(tasks):
        task = dict(t, workload=args.workload, seed=args.seed, src=SRC, trace=0)
        untraced.append(run_sample(task, env))
        if args.trace:
            worker_dir = os.path.join(run_dir, f"workers{i}")
            os.makedirs(worker_dir)
            task.update(trace=1, worker_dir=worker_dir,
                        dump=os.path.join(run_dir, f"spans{i}"))
            traced.append(run_sample(task, env))

    with open(os.path.join(run_dir, "samples.json"), "w") as f:
        json.dump({"untraced": untraced, "traced": traced}, f)

    attempted = sum(len(s["latencies"]) for s in untraced + traced)
    failed = sum(s["failed_ops"] for s in untraced + traced)
    for s in untraced + traced:
        for what in s["failures"]:
            print(f"FAILED: {what}")

    print(f"workload {args.workload}  seed {args.seed}  passes {n_passes}  samples {len(tasks)}  "
          f"failed_frac {failed / attempted:g} ({failed} of {attempted} ops)")
    if args.trace:
        values = per_layer(untraced, traced, ids)
        units = dict(per_layer_metrics(ids))
        table = "\n".join(
            f"  {name:48s} {values[name]:14.6g} {unit}" for name, unit in units.items())
        with open(os.path.join(run_dir, "layers.txt"), "w") as f:
            f.write(table + "\n")
        print(table)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        e2e = end_to_end(untraced)
        for name, (value, unit, note) in e2e.items():
            print(f"  {name:12s} {value:12.6g} {unit:4s}  {note}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
