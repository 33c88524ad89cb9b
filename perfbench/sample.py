"""One benchmark sample: a fresh interpreter that sets up one task of a
workload, times it, and checks every answer it timed.

``run.py`` starts it as ``python3 perfbench/sample.py '<json task>'`` with
finmod's source directory on PYTHONPATH.  Its last line of output is one JSON
object with the sample's op latencies, failures, resource use, calibration
times and, when traced, the per-layer counts.  Every finmod memo is
process-global, so each sample starts with cold caches, as a `finmod` command
does.

A fixed pure-Python calibration loop (``calibrate``) measures the host's
speed, which swings by a factor of two within seconds on a shared host.  It
runs when the sample starts and then every ``plan.CALIBRATION_EVERY_S``
seconds, on an interval timer, until the timed phase ends; ``run.py`` scales
each time by the calibrations measured over it.  The calibrations' own time
is taken out of every set-up, op and span time.  A timed phase that runs a
process pool calibrates only at its start and end: a timer would put
calibrations beside the pool's workers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import signal
import sys
import time

from plan import (
    BUDGET, CALIBRATION_EVERY_S, CALIBRATION_ROUNDS, ELEMENTARY, MODULES, ORACLE_MAX_ORDER,
    galois_number, shard_of,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop of dict, tuple, hash and
    integer work, the kind of work finmod does.  It shares no code with
    finmod, so no change to finmod moves it; only the host's speed does."""
    t = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        k = (i * 7919) % 4099
        acc ^= hash((k, acc & 255))
        table[k] = table.get(k, 0) + 1
    return time.perf_counter() - t


def load_reference(section):
    with open(REFERENCE) as f:
        return json.load(f)[section]


class Calibrator:
    """Calibrations: one at once, then, until ``stop``, one every
    CALIBRATION_EVERY_S seconds after the last one ended, on an interval
    timer.  ``points`` holds (start, end, calibration seconds) on the
    monotonic clock; ``spent`` is the wall time all calibrations took."""

    def __init__(self):
        self.points = []
        self.spent = 0.0
        self.timer = True
        self.run()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S)

    def run(self):
        t = time.monotonic()
        c = calibrate()
        end = time.monotonic()
        self.points.append((t, end, c))
        self.spent += end - t

    def tick(self, *_):
        self.run()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S)

    def now(self):
        """The monotonic clock and the calibration seconds spent so far,
        read with no calibration in between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            return time.monotonic(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    def stop(self):
        """Stop the timer and calibrate once more."""
        self.timer = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.run()


class Sample:
    """What one sample measured, and every failure it found."""

    def __init__(self, task, tracer, statement_ids, calibrator):
        self.task = task
        self.tracer = tracer
        self.calibrator = calibrator
        self.latencies = []
        self.labels = []  # what each op was, per latency
        self.calls = []  # (start, end, calibration seconds within, ops) per op call
        self.failed_ops = 0
        self.failures = []  # descriptions of failed ops and checks
        self.check_s = dict.fromkeys(statement_ids, 0.0)
        self.cpu_s = 0.0

    def start_timed(self, timer=True):
        """End the set-up.  timer=False stops the calibration timer for the
        timed phase."""
        self.ready, self.setup_calibration_s = self.calibrator.now()
        if not timer:
            self.calibrator.stop()
        if self.tracer:
            self.tracer.phase = "timed"

    def op(self, labels, work):
        """Time work(), which makes the ops that labels name: one op, for
        which it returns None, or several, whose latencies it returns.  An
        op's latency is the call's wall time less the calibrations in it."""
        cpu0 = cpu_seconds()
        t, spent = self.calibrator.now()
        latencies = work()
        end, spent_end = self.calibrator.now()
        cpu = cpu_seconds() - cpu0
        inside = spent_end - spent
        self.cpu_s += cpu - inside
        if latencies is None:
            latencies = [end - t - inside]
        self.calls.append((t, end, inside, len(latencies)))
        self.latencies += latencies
        self.labels += labels

    def stop_timed(self):
        self.calibrator.stop()
        if self.tracer:
            self.tracer.phase = "check"


def corpus_shard(task, name_order=False):
    """This sample's shard of the seeded corpus, in the corpus's order or in
    name order.  The sort is stable: of the two instances named
    Z2+Z4-over-Z4, the mandatory one comes first in every corpus."""
    from finmod import Corpus, generate_corpus

    corpus = generate_corpus(task["seed"], BUDGET)
    shards = shard_of((i.name for i in corpus.instances), task["shards"])
    kept = [i for i in corpus.instances if shards.get(i.name) == task["shard"]]
    if name_order:
        kept.sort(key=lambda i: i.name)
    return Corpus(corpus.seed, tuple(kept))


def instance_blocks(summary, n_statements):
    """{instance name: (sorted sha256 of each of its instances' blocks of
    report lines, summed outcome counts)}.  run_suite reports each instance's
    statements one after another; two corpus instances can share a name."""
    lines = summary.text().split("\n")
    out = {}
    for start in range(0, len(summary.reports), n_statements):
        chunk = summary.reports[start:start + n_statements]
        block = "\n".join(lines[start:start + n_statements])
        hashes, counts = out.setdefault(chunk[0].instance, ([], dict.fromkeys(summary.counts, 0)))
        hashes.append(hashlib.sha256(block.encode()).hexdigest())
        for r in chunk:
            counts[r.outcome] += 1
    for hashes, _ in out.values():
        hashes.sort()
    return out


def run_verify(s: Sample, jobs: int):
    """The shard in name order.  An instance's checks reuse what the checks
    of earlier instances left in finmod's caches, so the order decides
    which check pays for a shared lattice or Hom group: in the seeded order
    single checks take from 1 ms to 270 ms depending on the seed.  In name
    order every seed times the same work; the seed still shapes set-up.

    Serially, one run_suite call per (instance, statement): run_suite
    reports instance after instance and statement after statement, so the
    joined reports are those of one run over the shard, and calibrations can
    run between them.  With jobs > 1 the whole shard is one call, so that
    one process pool serves it, as under `finmod verify --jobs`."""
    from finmod import STATEMENT_IDS, Corpus, run_suite
    from finmod.harness import SuiteSummary

    shard = corpus_shard(s.task, name_order=True)
    if jobs > 1:
        calls = [(shard, STATEMENT_IDS)]
    else:
        calls = [(Corpus(shard.seed, (i,)), (sid,)) for i in shard.instances
                 for sid in STATEMENT_IDS]
    summaries = []

    def run(part, ids):
        summaries.append(run_suite(part, ids=ids, jobs=jobs))
        return [r.elapsed for r in summaries[-1].reports] if jobs > 1 else None

    s.start_timed(timer=jobs == 1)
    for part, ids in calls:
        s.op([f"{i.name} {sid}" for i in part.instances for sid in ids],
             lambda: run(part, ids))
    s.stop_timed()

    reports = tuple(r for summary in summaries for r in summary.reports)
    counts = {k: sum(summary.counts[k] for summary in summaries) for k in summaries[0].counts}
    summary = SuiteSummary(reports=reports, counts=counts,
                           failed=tuple(r for r in reports if r.outcome == "fail"))
    for r in reports:
        s.check_s[r.statement] += r.elapsed

    # Each instance's block of report lines must hash to the block a serial
    # run of the whole corpus printed when the reference was made, and the
    # summary line must add up the same counts.  The serial and jobs=2 texts
    # are then byte-identical whenever both pass.
    bad = set()
    for r in reports:
        if r.outcome in ("fail", "skipped"):
            bad.add(r.instance)
            s.failures.append(f"{r.outcome}: {r.line()}")
    ref = load_reference("verify")
    expected = dict.fromkeys(summary.counts, 0)
    for name, (hashes, _) in instance_blocks(summary, len(STATEMENT_IDS)).items():
        if name not in ref or ref[name]["sha256"] != hashes:
            bad.add(name)
            s.failures.append(f"report lines differ from the reference for {name}")
        else:
            for k, v in ref[name]["counts"].items():
                expected[k] += v
    if summary.counts != expected:
        bad.update(r.instance for r in reports)
        s.failures.append(f"summary counts {summary.counts}, reference {expected}")
    s.failed_ops = sum(r.instance in bad for r in reports)


def build_module(name):
    from finmod import direct_sum, matrix_ring, regular_module, triangular_ring, zn_ring

    _, family, args, summands = next(m for m in MODULES if m[0] == name)
    ring = {"zn": zn_ring, "matrix": matrix_ring, "triangular": triangular_ring}[family](*args)
    regular = regular_module(ring)
    module = regular
    for _ in range(summands - 1):
        module, _, _ = direct_sum(module, regular)
    return module


def query_value(query, result):
    """The checked part of a query's answer, as plain JSON data."""
    if query in ("all_submodules", "fully_invariant_submodules"):
        return len(result)
    if query == "hom_group":
        return result.order
    if query == "is_goldie":
        return [result.is_quasi_projective, result.is_retractable, result.is_goldie,
                result.uniform_dim, result.annihilator_lattice_size]
    return [result.prime_radical.order, result.ell.order, len(result.primes),
            result.nilpotency_of_radical]


def run_module_query(s: Sample):
    import finmod

    name, query = s.task["module"], s.task["query"]
    module = build_module(name)
    fn = getattr(finmod, query)
    args = (module, module) if query == "hom_group" else (module,)
    results = []

    def run():
        try:
            results.append(fn(*args))
        except finmod.CapExceeded as exc:
            results.append(exc)

    s.start_timed()
    s.op([f"{name} {query}"], run)
    s.stop_timed()
    result = results[0]

    if isinstance(result, Exception):
        s.failed_ops = 1
        s.failures.append(f"{name} {query}: {result}")
        return
    got = query_value(query, result)
    want = load_reference("module_queries")[name][query]
    if query == "all_submodules" and name in ELEMENTARY:
        want = galois_number(*ELEMENTARY[name])
    if got != want:
        s.failed_ops = 1
        s.failures.append(f"{name} {query}: got {got}, reference {want}")


def run_oracle(s: Sample):
    from finmod import (
        BudgetExceeded, Submodule, all_submodules, brute_all_submodules, brute_ell,
        brute_hom_group, brute_prime_radical, brute_product, ell, hom_group,
        prime_radical, product,
    )

    def sorted_lattice(subs):
        return sorted(subs, key=Submodule.sort_key)

    def matrices(homs):
        return {h.matrix for h in homs}

    # (label, oracle function, arguments, normaliser, fast-path answer), the
    # comparisons of acceptance criterion 4.
    ops = []
    for inst in corpus_shard(s.task).instances:
        m = inst.module
        if m.order > ORACLE_MAX_ORDER:
            continue
        lat = list(all_submodules(m))
        ops.append((f"{inst.name} lattice", brute_all_submodules, (m,), sorted_lattice, lat))
        homs = matrices(hom_group(m, m).elements())
        ops.append((f"{inst.name} hom", brute_hom_group, (m, m), matrices, homs))
        sample = lat[:: max(1, len(lat) // 5)]
        for a, b in itertools.product(sample, repeat=2):
            ops.append((f"{inst.name} product {a.describe()} {b.describe()}",
                        brute_product, (m, a, b), None, product(m, a, b)))
        ops.append((f"{inst.name} ell", brute_ell, (m,), None, ell(m)))
        ops.append((f"{inst.name} prime radical", brute_prime_radical, (m,), None,
                    prime_radical(m).prime_radical))

    def compare(label, fn, args, normalise, want):
        try:
            got = fn(*args)
            ok = (normalise(got) if normalise else got) == want
        except BudgetExceeded as exc:
            ok, label = False, f"{label}: {exc}"
        if not ok:
            s.failed_ops += 1
            s.failures.append(f"oracle and fast path disagree: {label}")

    s.start_timed()
    for op in ops:
        s.op([op[0]], lambda: compare(*op))
    s.stop_timed()


RUNNERS = {
    "verify": lambda s: run_verify(s, jobs=1),
    "verify-jobs2": lambda s: run_verify(s, jobs=2),
    "module-queries": run_module_query,
    "oracle-crosscheck": run_oracle,
}


def main():
    task = json.loads(sys.argv[1])
    calibrator = Calibrator()
    import finmod

    expected_src = os.path.join(task["src"], "finmod", "__init__.py")
    if os.path.abspath(finmod.__file__) != expected_src:
        sys.exit(f"finmod imported from {finmod.__file__}, not {expected_src}")
    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer(task["worker_dir"], task["dump"], calibrator)
        tracer.install()

    s = Sample(task, tracer, finmod.STATEMENT_IDS, calibrator)
    RUNNERS[task["workload"]](s)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "ready": s.ready,
        "setup_calibration_s": s.setup_calibration_s,
        "calibrations": calibrator.points,
        "calls": s.calls,
        "cpu_s": s.cpu_s,
        "maxrss_kb": max(own, kids),
        "latencies": s.latencies,
        "labels": s.labels,
        "failed_ops": s.failed_ops,
        "failures": s.failures[:20],
        "check_s": s.check_s,
        "trace": None,
    }
    if tracer:
        tracer.merge_workers()
        out["trace"] = tracer.metrics()
        tracer.dump(f"{task['dump']}.tsv.gz")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
