"""What each workload runs, and the names of the metrics it reports.

Shared by the driver (``run.py``), the sample process (``sample.py``) and the
tracer.  Nothing here imports finmod, so the driver never does.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "verify-jobs2", "module-queries", "oracle-crosscheck")

# The corpus size `finmod verify` uses by default.  At a budget of 101 or more
# every seed selects the same 101 instances, only in a different order, so the
# work of a pass does not depend on the seed.
BUDGET = 110

# verify, verify-jobs2 and oracle-crosscheck deal one pass over this many fresh
# processes, so each pass sets up this many times.
SHARDS = {"verify": 2, "verify-jobs2": 2, "oracle-crosscheck": 1}

# Corpus instances left out of every corpus workload.  Each one either takes
# more than 1.1 s of serial `run_suite` time or more than 1 s of oracle time
# on a 2-core host, or has an oracle comparison that exceeds the oracle's
# default budget (which would be a skipped, hence failed, op).  Together they
# take 50 s of the 64 s serial verify pass and 25 s of the 33 s oracle pass.
# A verify pass over the other 82 instances (2,624 reports) takes about 27 s,
# set-ups included.
EXCLUDED = frozenset({
    "Z2xT2(Z2)-regular",
    "T3(Z2)-regular",
    "T3(Z2)-regular/fi1",
    "T3(Z2)-regular/fi2",
    "T3(Z2)-regular/fi3",
    "T3(Z2)-regular/fi4",
    "T3(Z2)-regular/fi5",
    "T3(Z2)-regular/fi6",
    "T3(Z2)-regular/fi9",
    "T3(Z2)-regular/fi10",
    "T2(Z2)+quotient",
    "T2(Z4)-regular",
    "M2(Z2)-regular",
    "Z2^3-free",
    "Z3+Z27-over-Z27",
    "Z3+Z18-over-Z18",
    "Z4+Z16-over-Z16",
    "M2(Z3)-regular",
    "Z3xM2(Z2)-regular",
})

# The oracle workload compares only instances of at most this order, as
# acceptance criterion 4 does.
ORACLE_MAX_ORDER = 256

# module-queries: (name, ring family, ring args, number of regular summands).
# Z2^6, Z3^5 and Z4^4 are left out: one query on them takes 11-21 s, more
# than a run can hold beside the other ops.  T2(Z3)^2 (11 s for its five
# queries) and M2(Z2)^2 (3 s) are left out so that every query fits twice.
MODULES = (
    ("Z2^5", "zn", (2,), 5),
    ("Z3^4", "zn", (3,), 4),
    ("Z4^3", "zn", (4,), 3),
    ("M2(Z4)", "matrix", (2, 4), 1),
    ("T2(Z2)^2", "triangular", (2, 2), 2),
)

# Each query runs this many times in a pass, each time in its own fresh
# process: one cold run of a short query is too noisy a sample on its own.
QUERY_REPEATS = 2

QUERIES = (
    "all_submodules",
    "fully_invariant_submodules",
    "hom_group",
    "is_goldie",
    "prime_radical",
)

# Elementary abelian modules F_q^n, whose lattice size is a Galois number.
ELEMENTARY = {"Z2^5": (2, 5), "Z3^4": (3, 4)}

# Wall seconds of one pass of each workload, set-ups included, on a 2-core
# host.  A run makes the whole number of passes closest to its --seconds at
# this pace, and at least one.
PASS_SECONDS = {
    "verify": 27.0,
    "verify-jobs2": 21.0,
    "module-queries": 29.0,
    "oracle-crosscheck": 11.0,
}


# The calibration loop in sample.py: its number of rounds, and the seconds it
# takes on the reference host.  Every reported time is scaled by this
# reference over the calibration times measured around it.  The reference is
# the loop's time in a quiet period of a 2-core Xeon VM with Python 3.11.7;
# it fixes only the scale of the reported times.
CALIBRATION_ROUNDS = 20_000
CALIBRATION_REF_S = 0.0070
# Seconds from the end of one calibration to the start of the next.
CALIBRATION_EVERY_S = 0.25


def galois_number(q: int, n: int) -> int:
    """Number of subspaces of F_q^n: the sum of the Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def shard_of(names, shards: int) -> dict:
    """Fixed shard of each kept instance name: the seed orders the instances
    within a shard but never moves one to another shard, so a pass does the
    same work on every seed."""
    kept = sorted(n for n in names if n not in EXCLUDED)
    return {name: i % shards for i, name in enumerate(kept)}


def pass_tasks(workload: str, seed: int) -> list[dict]:
    """The fresh-process tasks that make up one pass of a workload."""
    if workload == "module-queries":
        ops = [{"module": m[0], "query": q} for m in MODULES for q in QUERIES] * QUERY_REPEATS
        random.Random(seed).shuffle(ops)
        return ops
    return [{"shard": j, "shards": SHARDS[workload]} for j in range(SHARDS[workload])]


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------------------
# metric names

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("intlat", "algebra", "lattice", "homspace", "product", "radical",
          "oracle", "harness")

# (module, attribute, reported fields).  A field list of () traces the function
# for the layer's self time without reporting it on its own.
TRACED = (
    ("intlat", "CanonicalSubgroup.__init__", ("builds", "self_s")),
    ("intlat", "solve_homogeneous_congruences", ("calls", "self_s")),
    ("algebra", "quotient_module", ("calls", "self_s")),
    ("algebra", "direct_sum", ("calls", "self_s")),
    ("algebra", "validate_module", ("calls", "self_s")),
    ("lattice", "all_submodules", ("calls", "self_s", "repeat_frac", "members")),
    ("lattice", "is_quasi_projective", ("calls", "self_s", "repeat_frac")),
    ("lattice", "fully_invariant_submodules", ("calls", "self_s", "repeat_frac")),
    ("lattice", "is_retractable", ("calls", "self_s")),
    ("lattice", "is_goldie", ()),
    ("homspace", "hom_group", ("calls", "self_s", "repeat_frac")),
    ("product", "product", ("calls", "self_s", "repeat_frac")),
    ("product", "power_trace", ("calls", "self_s")),
    ("product", "is_nil_submodule", ("calls", "self_s")),
    ("product", "is_locally_nilpotent", ("calls", "self_s")),
    ("radical", "prime_radical", ("calls", "self_s")),
    ("radical", "ell", ("calls", "self_s")),
    ("oracle", "brute_all_submodules", ("calls", "self_s")),
    ("oracle", "brute_hom_group", ("calls", "self_s")),
    ("oracle", "brute_product", ("calls", "self_s")),
    ("oracle", "brute_ell", ("calls", "self_s")),
    ("oracle", "brute_prime_radical", ("calls", "self_s")),
    ("harness", "check_statement", ()),
    ("harness", "generate_corpus", ()),
)

FIELD_UNITS = {
    "builds": "count",
    "calls": "count",
    "members": "count",
    "self_s": "s",
    "repeat_frac": "fraction",
}

def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def per_layer_metrics(statement_ids) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, attr, fields in TRACED:
        out += [(f"{span_name(module, attr)}.{f}", FIELD_UNITS[f]) for f in fields]
    out += [(f"harness.check.{sid}.s", "s") for sid in statement_ids]
    out.append(("harness.cpu_s", "s"))
    out += [(f"{layer}.self_share", "%") for layer in LAYERS]
    out += [(f"setup.{layer}.self_s", "s") for layer in LAYERS]
    out += [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
    return out
