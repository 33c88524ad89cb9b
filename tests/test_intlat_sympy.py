"""Smith invariants and Hermite forms checked against sympy's on random
integer matrices; skipped where sympy is not installed."""

import pytest
from hypothesis import given, strategies as st

from finmod.intlat import CanonicalSubgroup, snf

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)

subgroups = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 12), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), max_size=4),
    )
)


@given(matrices)
def test_snf_invariants_match_sympy(rows):
    _, d, _ = snf(rows)
    diagonal = tuple(d[i][i] for i in range(min(len(rows), len(rows[0]))))
    want = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    assert diagonal == tuple(int(x) for x in want)


@given(subgroups)
def test_hnf_matches_sympy(case):
    moduli, rows = case
    n = len(moduli)
    # sympy puts a lattice basis in the columns of an upper triangular matrix,
    # reduced to the right of each pivot; with the coordinates reversed that
    # is the row form reduced above each pivot that CanonicalSubgroup keeps.
    lattice = [r[::-1] for r in rows]
    lattice += [[m if j == n - 1 - i else 0 for j in range(n)] for i, m in enumerate(moduli)]
    w = hermite_normal_form(sympy.Matrix(lattice).T)
    full = tuple(tuple(int(w[n - 1 - j, n - 1 - i]) for j in range(n)) for i in range(n))
    sub = CanonicalSubgroup(moduli, rows)
    assert sub.full_hnf == full
    assert sub.basis == tuple(r for i, r in enumerate(full) if r[i] != moduli[i])
