"""Modules over different rings that act alike share one analysis: the
answers stay exact on every ring's modules, whichever module of a
presentation is analysed first, and what depends on the ring stays per
module."""

import pytest

from finmod.algebra import (
    ValidationError,
    clear_analyses,
    cyclic_module,
    direct_sum,
    quotient_module,
    regular_module,
    zn_ring,
)
from finmod.homspace import hom_group
from finmod.lattice import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    fully_invariant_submodules,
    submodule_as_module,
)
from finmod.oracle import (
    brute_all_submodules,
    brute_ell,
    brute_hom_group,
    brute_prime_radical,
    brute_product,
)
from finmod.product import product
from finmod.radical import ann_left, ell, is_prime_submodule, prime_radical

RINGS = (4, 8, 12, 16)


def _modules(n):
    """Z2, Z4 and Z2 (+) Z4 over Z/n, as cyclic modules, as quotients of
    the regular module, and as direct sums of each."""
    ring = zn_ring(n)
    reg = regular_module(ring)
    two, four = cyclic_module(ring, 2), cyclic_module(ring, 4)
    q2 = quotient_module(reg, cyclic_submodule(reg, (2,)))[0]
    q4 = quotient_module(reg, cyclic_submodule(reg, (4 % n,)))[0]
    return [two, four, q2, q4, direct_sum(two, four)[0], direct_sum(q2, q4)[0]]


def _sorted(subs):
    return sorted(subs, key=Submodule.sort_key)


@pytest.mark.parametrize("order", [RINGS, RINGS[::-1]], ids=["small-ring-first", "large-ring-first"])
def test_shared_answers_match_the_oracle_on_every_ring(order):
    clear_analyses()
    by_ring = {n: _modules(n) for n in order}
    analyses = {id(m.analysis) for ms in by_ring.values() for m in ms}
    assert len(analyses) < sum(map(len, by_ring.values()))  # some are shared
    for n in order:
        modules = by_ring[n]
        for m in modules:
            lat = all_submodules(m)
            assert lat == _sorted(brute_all_submodules(m)), m
            for a in lat:
                for b in lat:
                    assert product(m, a, b) == brute_product(m, a, b), (m, a, b)
            assert ell(m) == brute_ell(m), m
            assert prime_radical(m).prime_radical == brute_prime_radical(m), m
            for other in modules:
                for s in all_submodules(other):
                    target = submodule_as_module(other, s).module
                    want = {f.matrix for f in brute_hom_group(m, target)}
                    assert {f.matrix for f in hom_group(m, target).elements()} == want, (m, other, s)


@pytest.mark.parametrize("n", RINGS)
def test_constructors_return_modules_over_their_input_ring(n):
    # each ring's modules are built after every other ring's, so their
    # analyses hold answers made over other rings
    for k in RINGS:
        if k != n:
            for m in _modules(k):
                for s in all_submodules(m):
                    quotient_module(m, s)
                    submodule_as_module(m, s)
                direct_sum(m, regular_module(m.ring))
    ring = zn_ring(n)
    for m in _modules(n):
        reg = regular_module(ring)
        total, (inj, _), _ = direct_sum(m, reg)
        assert total.ring == ring and inj.source == m
        for s in all_submodules(m):
            quot, proj = quotient_module(m, s)
            emb = submodule_as_module(m, s)
            assert quot.ring == ring and proj.source == m
            assert emb.module.ring == ring and emb.inclusion.target == m


def test_free_is_a_fact_about_the_ring():
    # Z2 is free over Z2 and not over Z12: Hom(Z2, Z12) over Z12 is {0, 6}
    clear_analyses()
    z2 = regular_module(zn_ring(2))
    assert hom_group(z2, z2).order == 2 and all_submodules(z2)
    two, z12 = cyclic_module(zn_ring(12), 2), regular_module(zn_ring(12))
    assert two.analysis is z2.analysis
    assert {f.matrix for f in hom_group(two, z12).elements()} == {((0,),), ((6,),)}
    assert {f.matrix for f in hom_group(z12, two).elements()} == {((0,),), ((1,),)}


def test_a_shared_answer_still_refuses_modules_over_different_rings():
    z2, two = regular_module(zn_ring(2)), cyclic_module(zn_ring(12), 2)
    z12 = regular_module(zn_ring(12))
    hom_group(two, z12)
    direct_sum(two, z12)
    with pytest.raises(ValueError, match="modules over different rings"):
        hom_group(z2, z12)
    with pytest.raises(ValidationError, match="common ring"):
        direct_sum(z2, z12)


def test_checks_compare_presentations_not_analyses():
    # a module keeps the analysis it carries past clear_analyses(); one
    # built after it acts alike and gets a new analysis
    old = cyclic_module(zn_ring(8), 4)
    kept = all_submodules(old)
    clear_analyses()
    new = cyclic_module(zn_ring(16), 4)
    assert new.analysis is not old.analysis and old.acts_like(new)
    assert Submodule.zero(old) == Submodule.zero(new)
    assert kept == all_submodules(new)
    assert kept[1].le(all_submodules(new)[2]) and kept[1].sum(Submodule.zero(new)) == kept[1]
    assert product(new, kept[2], kept[2]) == brute_product(new, kept[2], kept[2])
    assert ann_left(new, kept[1]) == ann_left(old, kept[1])
    radical = fully_invariant_submodules(old)[1]
    assert is_prime_submodule(new, radical) == is_prime_submodule(old, radical) == (True, None)
    assert not old.acts_like(cyclic_module(zn_ring(8), 2))
