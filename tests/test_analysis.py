"""The per-module analysis memo: caps isolation, copies of cached lists,
sharing between equal modules, and warm answers against the oracle."""

import pytest

from finmod.algebra import (
    analysis,
    cyclic_module,
    direct_sum,
    module_from_actions,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS, Caps, CapExceeded
from finmod.lattice import (
    all_submodules,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    is_quasi_projective,
    is_retractable,
)
from finmod.oracle import brute_ell, brute_prime_radical
from finmod.radical import ell, prime_radical


def plane(name="plane"):
    """F_2^2 with generator labels no other test uses, so its analysis starts
    cold; its lattice has five members."""
    return module_from_actions(
        zn_ring(2), (2, 2), [[[1, 0], [0, 1]]], labels=("u", "v"), name=name
    )


def test_small_caps_raise_before_and_after_a_default_call():
    m = plane()
    small = Caps(max_lattice=3)
    assert DEFAULT_CAPS not in analysis(m).lattice
    for query in (all_submodules, is_quasi_projective):
        with pytest.raises(CapExceeded):
            query(m, small)
    assert len(all_submodules(m)) == 5
    assert is_quasi_projective(m)
    for query in (all_submodules, is_quasi_projective):
        with pytest.raises(CapExceeded):
            query(m, small)
    assert small not in analysis(m).lattice
    assert (m, small) not in analysis(m).projective


@pytest.mark.parametrize("query", [distinct_cyclic_submodules, fully_invariant_submodules])
def test_mutating_a_returned_list_leaves_the_memo_alone(query):
    m = regular_module(triangular_ring(2, 2))
    first = query(m)
    expected = list(first)
    first.clear()
    first.append(None)
    assert query(m) == expected


def test_equal_modules_share_one_analysis():
    a = plane("first")
    b = plane("second")
    assert a == b and a is not b
    assert analysis(a) is analysis(b)
    assert list(all_submodules(a)) == list(all_submodules(b))
    assert distinct_cyclic_submodules(a) == distinct_cyclic_submodules(b)
    assert is_quasi_projective(a) == is_quasi_projective(b)
    assert is_retractable(a) == is_retractable(b)
    assert DEFAULT_CAPS in analysis(a).retractable
    assert ell(a) == ell(b)
    assert prime_radical(a) == prime_radical(b)


@pytest.mark.parametrize(
    "module",
    [
        regular_module(triangular_ring(2, 2)),
        direct_sum(cyclic_module(zn_ring(4), 2), regular_module(zn_ring(4)))[0],
    ],
    ids=["T2(Z2)-regular", "Z2+Z4-over-Z4"],
)
def test_warm_radicals_match_the_oracle(module):
    for _ in range(2):
        assert ell(module) == brute_ell(module)
        assert prime_radical(module).prime_radical == brute_prime_radical(module)
    assert DEFAULT_CAPS in analysis(module).ell
    assert DEFAULT_CAPS in analysis(module).prime_radical
