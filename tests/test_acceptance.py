"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are exact (no numeric tolerances anywhere in the library); the time
limits quoted alongside are asserted as stated.
"""

import itertools
import time

import pytest

from finmod.algebra import (
    direct_sum,
    matrix_ring,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.harness import (
    _conclude,
    check_statement,
    generate_corpus,
)
from finmod.homspace import hom_group
from finmod.lattice import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    fully_invariant_submodules,
    is_quasi_projective,
    is_retractable,
)
from finmod.oracle import (
    BudgetExceeded,
    brute_all_submodules,
    brute_ell,
    brute_hom_group,
    brute_prime_radical,
    brute_primes,
    brute_product,
)
from finmod.product import is_nil_submodule, nilpotency_index, product
from finmod.radical import ell, prime_radical, subm_sequence


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(0, budget=110)


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status} {detail}")
    assert ok, detail


def test_criterion_1_prime_power_radical():
    """Radical of the cyclic prime-power module is generated by p, with
    nilpotency index n."""
    start = time.perf_counter()
    for p in (2, 3):
        for n in range(1, 5):
            m = regular_module(zn_ring(p**n))
            radical = ell(m)
            assert radical == cyclic_submodule(m, (p,)), (p, n)
            assert nilpotency_index(m, radical) == n, (p, n)
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 1.0, f"8 prime-power instances, {elapsed:.2f}s < 1s")


def test_criterion_2_main_theorem_sweep(corpus):
    start = time.perf_counter()
    assert len(corpus.instances) >= 100
    failures = []
    exercised = 0
    for inst in corpus.instances:
        if not (is_quasi_projective(inst.module) and is_retractable(inst.module)):
            continue
        m = inst.module
        for n_sub in fully_invariant_submodules(m):
            if n_sub.is_full():
                continue
            if not is_nil_submodule(m, n_sub).is_nil:
                continue
            if nilpotency_index(m, n_sub) is None:
                failures.append((inst.name, n_sub.describe()))
            if not n_sub.is_zero():
                exercised += 1
        profile = prime_radical(m)
        if profile.no_primes or profile.nilpotency_of_radical is None:
            failures.append((inst.name, "radical not nilpotent"))
    elapsed = time.perf_counter() - start
    _report(
        2,
        not failures and elapsed < 300,
        f"{len(corpus.instances)} instances, {exercised} nonzero nil submodules, "
        f"{len(failures)} failures, {elapsed:.1f}s < 300s",
    )


def test_criterion_3_radical_identity(corpus):
    start = time.perf_counter()
    checked = 0
    failures = []
    for inst in corpus.instances:
        if not is_quasi_projective(inst.module):
            continue
        profile = prime_radical(inst.module)
        if profile.no_primes or profile.prime_radical != profile.ell:
            failures.append(inst.name)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        not failures and elapsed < 120,
        f"{checked} quasi-projective instances, {len(failures)} failures, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_4_oracle_equivalence(corpus):
    start = time.perf_counter()
    counts = {"hom": 0, "product": 0, "lattice": 0, "ell": 0, "radical": 0}
    skipped = {k: 0 for k in counts if k != "hom"}
    # End is compared on every instance, with no skip.
    failures = []
    for inst in corpus.instances:
        m = inst.module
        if m.order > 256:
            continue
        lat = list(all_submodules(m))
        try:
            got = sorted(brute_all_submodules(m), key=Submodule.sort_key)
            if got != lat:
                failures.append((inst.name, "lattice"))
            counts["lattice"] += 1
        except BudgetExceeded:
            skipped["lattice"] += 1
        brute = {h.matrix for h in brute_hom_group(m, m)}
        if brute != {h.matrix for h in hom_group(m, m).elements()}:
            failures.append((inst.name, "hom"))
        counts["hom"] += 1
        sample = lat[:: max(1, len(lat) // 5)]
        try:
            for a, b in itertools.product(sample, repeat=2):
                if brute_product(m, a, b) != product(m, a, b):
                    failures.append((inst.name, f"product {a.describe()} {b.describe()}"))
            counts["product"] += 1
        except BudgetExceeded:
            skipped["product"] += 1
        try:
            if brute_ell(m) != ell(m):
                failures.append((inst.name, "ell"))
            counts["ell"] += 1
        except BudgetExceeded:
            skipped["ell"] += 1
        try:
            profile = prime_radical(m)
            if brute_prime_radical(m) != profile.prime_radical:
                failures.append((inst.name, "prime radical"))
            # the prime sets themselves: on 45 of the 101 modules a
            # semiprime is not prime, which the radicals alone miss
            if (sorted(brute_primes(m), key=Submodule.sort_key)
                    != sorted(profile.primes, key=Submodule.sort_key)):
                failures.append((inst.name, "primes"))
            counts["radical"] += 1
        except BudgetExceeded:
            skipped["radical"] += 1
    elapsed = time.perf_counter() - start
    enough = all(counts[k] >= 60 for k in counts) and counts["hom"] == 101
    _report(
        4,
        not failures and enough and elapsed < 300,
        f"compared {counts} (budget-skipped {skipped}), "
        f"{len(failures)} failures, {elapsed:.1f}s < 300s",
    )


LEMMA_IDS = (
    "LEM-FPROD",
    "LEM-EPIPRODUCT",
    "LEM-PRODDIRSUMM",
    "LEM-RANNINTERSECTION",
    "LEM-DCCANNR",
    "LEM-DCCL",
    "LEM-LSUMAS",
)


def test_criterion_5_lemma_identities(corpus):
    start = time.perf_counter()
    draws = 0
    failures = []
    for inst in corpus.instances:
        for sid in LEMMA_IDS:
            report = check_statement(sid, inst)
            if report.outcome == "fail":
                failures.append((sid, inst.name, report.witness))
            elif report.outcome == "pass":
                draws += report.exercised
    # associativity draws on quasi-projective instances
    import random

    rng = random.Random(5)
    for inst in corpus.instances[:40]:
        if not is_quasi_projective(inst.module):
            continue
        m = inst.module
        lat = list(all_submodules(m))
        triples = [tuple(rng.choice(lat) for _ in range(3)) for _ in range(4)]
        for a, b, c in triples:
            left = product(m, product(m, a, b), c)
            right = product(m, a, product(m, b, c))
            if left != right:
                failures.append(("ASSOC", inst.name, a.describe()))
            draws += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        not failures and draws >= 500 and elapsed < 300,
        f"{draws} draws, {len(failures)} failures, {elapsed:.1f}s < 300s",
    )


def test_criterion_6_end_ring_checks(corpus):
    start = time.perf_counter()
    failures = []
    for inst in corpus.instances:
        # conclusions checked directly on every instance, not behind the
        # hypothesis gate: finite endomorphism rings must satisfy both
        macc = _conclude("PROP-MACCSACC", inst)
        if macc[1] is not None:
            failures.append((inst.name, "acc on right annihilators", macc[1]))
        gol = _conclude("LEM-MGOLSGOL", inst)
        if gol[1] is not None:
            failures.append((inst.name, "right Goldie", gol[1]))
    elapsed = time.perf_counter() - start
    _report(
        6,
        not failures and elapsed < 180,
        f"{len(corpus.instances)} endomorphism rings, {len(failures)} failures, "
        f"{elapsed:.1f}s < 180s",
    )


def test_criterion_7_ring_corollaries():
    start = time.perf_counter()
    failures = []
    from finmod.radical import is_semiprime_submodule

    for name, ring in [
        ("Z4", zn_ring(4)),
        ("Z6", zn_ring(6)),
        ("T2(Z2)", triangular_ring(2, 2)),
        ("M2(Z2)", matrix_ring(2, 2)),
    ]:
        reg = regular_module(ring)
        free2, _, _ = direct_sum(reg, reg)
        base_sp = is_semiprime_submodule(reg, Submodule.zero(reg))[0]
        free_sp = is_semiprime_submodule(free2, Submodule.zero(free2))[0]
        if base_sp != free_sp:
            failures.append((name, "semiprime equivalence"))
        base_prof = prime_radical(reg)
        free_prof = prime_radical(free2)
        base_nilp = base_prof.nilpotency_of_radical is not None
        free_nilp = free_prof.nilpotency_of_radical is not None
        if base_nilp != free_nilp or base_prof.no_primes or free_prof.no_primes:
            failures.append((name, "radical nilpotency equivalence"))
    elapsed = time.perf_counter() - start
    _report(
        7,
        not failures and elapsed < 120,
        f"4 rings with rank-1 and rank-2 free modules, {len(failures)} failures, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_8_sequence_vacuity(corpus):
    start = time.perf_counter()
    failures = []
    checked = 0
    for inst in corpus.instances:
        m = inst.module
        if subm_sequence(m, Submodule.zero(m)) != ("complete", 0):
            failures.append((inst.name, "zero case"))
        for n_sub in fully_invariant_submodules(m):
            if n_sub.is_zero() or n_sub.is_full():
                continue
            if not is_nil_submodule(m, n_sub).is_nil:
                continue
            if subm_sequence(m, n_sub)[0] != "hypothesis_violated":
                failures.append((inst.name, n_sub.describe()))
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        not failures and elapsed < 60,
        f"{checked} nonzero fully invariant nil submodules, "
        f"{len(failures)} failures, {elapsed:.1f}s < 60s",
    )


def test_criterion_9_determinism():
    from finmod.cli import main
    import contextlib
    import io

    def run_once():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["verify", "--corpus-seed", "0", "--budget", "20",
                 "--only", "COR-NESL,THM-MAIN,PROP-SUBM,LEM-RANNINTERSECTION"]
            )
        return code, out.getvalue()

    code1, text1 = run_once()
    code2, text2 = run_once()
    ok = code1 == code2 == 0 and text1 == text2 and text1.encode() == text2.encode()
    _report(9, ok, f"two verify runs byte-identical ({len(text1)} bytes)")
