"""The bounded caches in ``intlat`` and the interning of subgroups and
submodules: a cached answer is the answer a fresh build gives, every cache
stays within its bound, equal subgroups are one object while one is alive,
and what they hand out pickles like anything else."""

import gc
import os
import pickle
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finmod import intlat
from finmod.algebra import clear_analyses, direct_sum, regular_module, triangular_ring, zn_ring
from finmod.harness import generate_corpus, run_suite
from finmod.intlat import (
    CACHE_SIZE,
    CanonicalSubgroup,
    generated_subgroup,
    solve_homogeneous_congruences,
)
from finmod.lattice import Submodule, all_submodules

CACHES = (intlat._generated, intlat._solve, intlat._meet, intlat._contains, intlat._sum)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _case(moduli):
    rows = st.lists(
        st.lists(st.integers(-20, 20), min_size=len(moduli), max_size=len(moduli)),
        max_size=3,
    )
    system = st.lists(
        st.tuples(
            st.sampled_from([2, 3, 4, 6, 12]),
            st.lists(st.integers(-12, 12), min_size=len(moduli), max_size=len(moduli)),
        ),
        max_size=3,
    )
    return st.tuples(st.just(moduli), rows, rows, system)


def _answers(moduli, g1, g2, rows, row_moduli):
    a = generated_subgroup(moduli, g1)
    b = generated_subgroup(moduli, g2)
    return (
        a, b, a.intersect(b), solve_homogeneous_congruences(rows, row_moduli, moduli),
        a.sum(b), a.contains_subgroup(b),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), max_size=4).flatmap(_case)
)
def test_cached_answers_equal_fresh_builds(case):
    moduli, g1, g2, raw = case
    # Scale each coefficient so the row is defined modulo the column moduli.
    rows = [[x * m // gcd(m, x * c) for x, c in zip(r, moduli)] for m, r in raw]
    row_moduli = [m for m, _ in raw]
    first = _answers(moduli, g1, g2, rows, row_moduli)
    cached = _answers(moduli, g1, g2, rows, row_moduli)
    assert all(x is y for x, y in zip(first, cached))
    clear_caches()
    # A rebuild after the caches are emptied is the interned instance that
    # ``cached`` keeps alive: one object per distinct subgroup.
    fresh = _answers(moduli, g1, g2, rows, row_moduli)
    assert all(x is y for x, y in zip(cached[:5], fresh[:5])) and cached[5] == fresh[5]
    # and each equals the uncached build
    uncached = (
        CanonicalSubgroup(moduli, g1),
        CanonicalSubgroup(moduli, g2),
        intlat._meet.__wrapped__(fresh[0], fresh[1]),
        intlat._solve.__wrapped__(tuple(map(tuple, rows)), tuple(row_moduli), moduli),
        CanonicalSubgroup(moduli, g1 + g2),
    )
    for x, y in zip(cached, uncached):
        assert x == y
        assert (x.moduli, x.full_hnf, x.basis, x.order) == (y.moduli, y.full_hnf, y.basis, y.order)
    assert cached[5] == all(cached[0].contains(r) for r in cached[1].basis)


def test_every_argument_is_part_of_the_key():
    clear_caches()
    assert generated_subgroup((4,), [[2]]).order == 2
    assert generated_subgroup((8,), [[2]]).order == 4
    assert solve_homogeneous_congruences([[2]], [4], [4]).order == 2
    assert solve_homogeneous_congruences([[2]], [2], [4]).order == 4
    assert solve_homogeneous_congruences([[2]], [4], [8]).order == 4
    a, b, c = (generated_subgroup((4, 2), rows) for rows in ([[1, 0]], [[1, 1]], [[0, 1]]))
    assert a.intersect(b).order == 2 and a.intersect(c).order == 1
    assert c.intersect(b).order == 1 and c.intersect(c).order == 2


def test_ragged_rows_are_not_stored():
    clear_caches()
    with pytest.raises(ValueError):
        generated_subgroup((4,), [[2, 1]])
    with pytest.raises(ValueError):
        generated_subgroup((4, 4), [[1, 0], [1]])
    assert intlat._generated.cache_info().currsize == 0


def test_a_full_cache_evicts():
    clear_caches()
    for k in range(CACHE_SIZE + 10):
        generated_subgroup((CACHE_SIZE + 10,), [[k]])
    info = intlat._generated.cache_info()
    assert info.currsize == info.maxsize == CACHE_SIZE
    assert info.misses == CACHE_SIZE + 10


def test_caches_stay_bounded_and_hit_on_seed0_instances():
    # Emptied analyses make the run ask intlat again.
    clear_analyses()
    clear_caches()
    corpus = generate_corpus(0, budget=6)
    assert not run_suite(corpus).failed
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert 0 < info.currsize <= info.maxsize and info.hits > 0, (cache, info)


def test_cached_submodule_pickles():
    m = regular_module(triangular_ring(2, 2))
    for sub in all_submodules(m):
        rows = sub.basis
        cached = Submodule.from_subgroup_rows(m, rows)
        assert Submodule.from_subgroup_rows(m, rows).subgroup is cached.subgroup
        back = pickle.loads(pickle.dumps(cached))
        assert back == cached == sub and hash(back) == hash(cached)
        # Unpickling goes through the interning: the same objects come back.
        assert back is cached is sub and back.subgroup is cached.subgroup
        assert back.subgroup.invariants == cached.subgroup.invariants


def test_equal_subgroups_by_any_route_are_one_object():
    # <(2, 0), (0, 2)> in Z4^2, reached by six routes
    m, _, _ = direct_sum(regular_module(zn_ring(4)), regular_module(zn_ring(4)))
    moduli = m.inv_factors
    assert moduli == (4, 4)
    routes = [
        generated_subgroup(moduli, [[2, 0], [0, 2]]),
        generated_subgroup(moduli, [[0, 2], [2, 0]]),
        generated_subgroup(moduli, [[2, 0]]).sum(generated_subgroup(moduli, [[0, 2]])),
        generated_subgroup(moduli, [[1, 0], [0, 2]]).intersect(generated_subgroup(moduli, [[2, 0], [0, 1]])),
        solve_homogeneous_congruences([[2, 0], [0, 2]], [4, 4], moduli),
        Submodule.span(m, [(2, 0), (0, 2)]).subgroup,
    ]
    assert all(g is routes[0] for g in routes)
    assert routes[0] == CanonicalSubgroup(moduli, [[0, 2], [2, 0]])
    assert routes[0].invariants == (2, 2)
    # one Smith presentation, computed once and read by every route
    assert all(g._smith is routes[0]._smith is not None for g in routes)


def test_the_weak_table_shrinks_once_references_drop():
    clear_caches()
    gc.collect()
    before = len(intlat._TABLE)
    moduli = (2**20,)  # a modulus nothing else uses
    held = [generated_subgroup(moduli, [[2**j]]) for j in range(20)]
    assert len(intlat._TABLE) == before + 20
    del held
    clear_caches()
    gc.collect()
    assert len(intlat._TABLE) <= before
    assert not any(key[0] == moduli for key in intlat._TABLE.keys())


def test_submodules_are_interned_per_analysis():
    m = regular_module(triangular_ring(2, 2))
    for sub in all_submodules(m):
        rows = sub.basis[::-1]
        first = Submodule.from_subgroup_rows(m, rows)
        assert Submodule.from_subgroup_rows(m, rows) is first is sub
        assert m.analysis.submodules[first.subgroup] is first
    kept = all_submodules(m)
    clear_analyses()
    # m keeps the analysis it carries, and with it the same objects.
    assert all(a is b for a, b in zip(all_submodules(m), kept, strict=True))
    # An equal module read first after the clear starts a new table: equal,
    # not identical, and the structural comparison still finds them equal.
    fresh = regular_module(triangular_ring(2, 2))
    assert fresh == m and fresh.analysis is not m.analysis
    for old, new in zip(kept, all_submodules(fresh), strict=True):
        assert old == new and hash(old) == hash(new) and old is not new
        assert old.subgroup is new.subgroup and old.le(new) and new.le(old)


def test_regular_module_is_one_per_ring_until_clear_analyses():
    ring = triangular_ring(2, 2)
    reg = regular_module(ring)
    assert regular_module(ring) is reg is regular_module(ring._replace(name="renamed"))
    assert all_submodules(reg) and reg.analysis.lattice
    clear_analyses()
    fresh = regular_module(ring)
    assert fresh is not reg and fresh == reg and regular_module(ring) is fresh
    assert fresh.analysis is not reg.analysis and fresh.analysis.free and not fresh.analysis.lattice
    # the registry lives beside the ring: neither pickles a cached module
    assert not ring.__getstate__() and not fresh.__getstate__()
    assert b"FiniteModule" not in pickle.dumps(ring)


def test_submodule_pickles_into_a_fresh_interpreter():
    m, _, _ = direct_sum(regular_module(triangular_ring(2, 2)), regular_module(triangular_ring(2, 2)))
    subs = all_submodules(m)
    script = (
        "import pickle, sys\n"
        "subs = pickle.loads(sys.stdin.buffer.read())\n"
        "print(repr([(hash(s), s.order, s.basis) for s in subs]))\n"
        "print(all(a.le(b) == (a.order <= b.order and a.intersect(b) == a) for a in subs for b in subs))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(subs),
            capture_output=True, env=env, check=True,
        ).stdout.decode().splitlines()
        assert out[0] == repr([(hash(s), s.order, s.basis) for s in subs])
        assert out[1] == "True"
