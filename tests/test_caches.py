"""The bounded caches in ``intlat``: a cached answer is the answer a fresh
build gives, every cache stays within its bound, and what they hand out
pickles like anything else."""

import pickle
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from finmod import intlat
from finmod.algebra import analysis, regular_module, triangular_ring
from finmod.harness import generate_corpus, run_suite
from finmod.intlat import (
    CACHE_SIZE,
    CanonicalSubgroup,
    generated_subgroup,
    solve_homogeneous_congruences,
)
from finmod.lattice import Submodule, all_submodules

CACHES = (intlat._generated, intlat._solve, intlat._meet)


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
    return a, b, a.intersect(b), solve_homogeneous_congruences(rows, row_moduli, moduli)


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
    fresh = _answers(moduli, g1, g2, rows, row_moduli)
    assert not any(x is y for x, y in zip(cached, fresh))
    for x, y in zip(cached, fresh):
        assert (x.moduli, x.full_hnf, x.basis, x.order) == (y.moduli, y.full_hnf, y.basis, y.order)
    # and each equals the uncached build
    assert cached[0] == CanonicalSubgroup(moduli, g1)
    assert cached[2] == intlat._meet.__wrapped__(fresh[0], fresh[1])
    assert cached[3] == intlat._solve.__wrapped__(
        tuple(map(tuple, rows)), tuple(row_moduli), moduli
    )


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
    analysis.cache_clear()
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
        assert back.subgroup is not cached.subgroup
        assert back.subgroup.invariants == cached.subgroup.invariants
