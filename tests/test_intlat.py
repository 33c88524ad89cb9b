"""Exact linear algebra layer: Smith/Hermite forms and congruence solving.

Oracles here are intentionally naive: subgroup closure by repeated addition
and exhaustive solution enumeration on tiny ambient groups.
"""

import itertools
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from finmod.intlat import CanonicalSubgroup, snf, solve_homogeneous_congruences


def brute_subgroup(generators, moduli):
    """Closure of the generators under addition, as a frozenset of tuples."""
    zero = tuple(0 for _ in moduli)
    gens = [tuple(x % m for x, m in zip(g, moduli)) for g in generators]
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def brute_solutions(a_rows, row_moduli, col_moduli):
    sols = set()
    for cand in itertools.product(*[range(m) for m in col_moduli]):
        if all(
            sum(c * x for c, x in zip(row, cand)) % m == 0
            for row, m in zip(a_rows, row_moduli)
        ):
            sols.add(cand)
    return frozenset(sols)


small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _is_diagonal(rows):
    return all(x == 0 for i, r in enumerate(rows) for j, x in enumerate(r) if i != j)


class TestSnf:
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert snf(eye) == (eye, eye, eye)

    def test_small_example(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        _, D, _ = snf([[2, 4], [6, 8]])
        assert D[0][0] == 2 and D[1][1] == 4
        assert _is_diagonal(D)

    def test_zero_matrix(self):
        _, D, _ = snf([[0, 0, 0]])
        assert D == [[0, 0, 0]]

    def test_empty(self):
        assert snf([]) == ([], [], [])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            snf([[1, 2], [3]])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(small_matrices)
    def test_round_trip_and_chain(self, rows):
        U, D, V = snf(rows)
        assert _mul(_mul(U, rows), V) == D
        assert _is_diagonal(D)
        diag = [D[i][i] for i in range(min(len(rows), len(rows[0])))]
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            if d2 != 0:
                assert d1 != 0 and d2 % d1 == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_matrices)
    def test_transforms_unimodular(self, rows):
        U, _, V = snf(rows)
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


class TestHnfCanonical:
    """The canonical basis of the subgroup the generator rows generate."""

    def test_single_generator(self):
        assert CanonicalSubgroup([4], [[2]]).basis == ((2,),)

    def test_whole_group(self):
        # gcd(2, 3, 6) = 1, so the subgroup is everything
        assert CanonicalSubgroup([6], [[2], [3]]).basis == ((1,),)

    def test_empty_generators(self):
        assert CanonicalSubgroup([2, 4], []).basis == ()

    def test_idempotent(self):
        moduli = [2, 4, 8]
        once = CanonicalSubgroup(moduli, [[1, 2, 3], [0, 2, 6]]).basis
        twice = CanonicalSubgroup(moduli, once).basis
        assert once == twice

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(0, 7), min_size=3, max_size=3),
            min_size=0,
            max_size=3,
        )
    )
    def test_matches_brute_closure(self, gens):
        moduli = (2, 4, 8)
        sub = CanonicalSubgroup(moduli, gens)
        elems = brute_subgroup(gens, moduli)
        assert sub.order == len(elems)
        assert frozenset(sub.elements()) == elems
        for e in elems:
            assert sub.contains(e)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(0, 7), min_size=3, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    def test_matches_brute_closure_order_512(self, gens):
        moduli = (8, 8, 8)
        sub = CanonicalSubgroup(moduli, gens)
        elems = brute_subgroup(gens, moduli)
        assert sub.order == len(elems)
        assert frozenset(sub.elements()) == elems


class TestCanonicalSubgroup:
    def test_equality_is_canonical(self):
        a = CanonicalSubgroup((2, 4), [[1, 1]])
        b = CanonicalSubgroup((2, 4), [[1, 3], [0, 2]])
        assert a == b and hash(a) == hash(b)

    def test_sum_and_intersect_against_brute(self):
        moduli = (4, 4)
        pairs = [
            ([[2, 0]], [[0, 2]]),
            ([[1, 1]], [[2, 0]]),
            ([[1, 0]], [[1, 2]]),
            ([[2, 2]], [[2, 0], [0, 2]]),
        ]
        for g1, g2 in pairs:
            s1 = CanonicalSubgroup(moduli, g1)
            s2 = CanonicalSubgroup(moduli, g2)
            e1 = brute_subgroup(g1, moduli)
            e2 = brute_subgroup(g2, moduli)
            assert frozenset(s1.sum(s2).elements()) == brute_subgroup(
                list(e1) + list(e2), moduli
            )
            assert frozenset(s1.intersect(s2).elements()) == e1 & e2

    def test_invariants(self):
        sub = CanonicalSubgroup((2, 4), [[1, 1]])
        assert sub.invariants == (4,)
        assert sub.order == 4
        full = CanonicalSubgroup((2, 4), [[1, 0], [0, 1]])
        assert full.invariants == (2, 4)

    def test_coords_round_trip(self):
        sub = CanonicalSubgroup((2, 4, 8), [[1, 2, 0], [0, 2, 2]])
        for e in sub.elements():
            assert sub.from_coords(sub.coords(e)) == e

    def test_zero_ambient(self):
        sub = CanonicalSubgroup((), [])
        assert sub.order == 1 and list(sub.elements()) == [()]

    def test_ragged_rows_rejected(self):
        # A longer row was truncated (order 2 here); a shorter one raised
        # IndexError.
        with pytest.raises(ValueError):
            CanonicalSubgroup((4,), [[2, 1]])
        with pytest.raises(ValueError):
            CanonicalSubgroup((4, 4), [[1, 0], [1]])


class TestCongruenceSolver:
    def test_forced_by_arithmetic(self):
        out = solve_homogeneous_congruences([[2]], [4], [4])
        assert frozenset(out.elements()) == {(0,), (2,)}
        assert out.basis == ((2,),)

    def test_empty_system(self):
        out = solve_homogeneous_congruences([], [], [6])
        assert out.basis == ((1,),)
        assert out.order == 6

    def test_incompatible_system_rejected(self):
        # x = 0 (mod 4) is not invariant under x -> x + 2 in Z/2
        with pytest.raises(ValueError):
            solve_homogeneous_congruences([[1]], [4], [2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_homogeneous_congruences([[2, 0]], [4, 4], [4, 4])
        with pytest.raises(ValueError):
            solve_homogeneous_congruences([[2]], [4], [4, 4])
        with pytest.raises(ValueError):
            solve_homogeneous_congruences([[0]], [0], [4])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(0, 7), min_size=4, max_size=4),
            min_size=1,
            max_size=2,
        )
    )
    def test_matches_enumeration_order_256(self, rows):
        col_moduli = (4, 4, 4, 4)
        row_moduli = []
        ok_rows = []
        for r in rows:
            for m in (2, 4):
                if all((c * cm) % m == 0 for c, cm in zip(r, col_moduli)):
                    ok_rows.append(r)
                    row_moduli.append(m)
                    break
        if not ok_rows:
            return
        out = solve_homogeneous_congruences(ok_rows, row_moduli, col_moduli)
        assert frozenset(out.elements()) == brute_solutions(
            ok_rows, row_moduli, col_moduli
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=2, max_size=2),
            min_size=1,
            max_size=3,
        )
    )
    def test_matches_enumeration(self, rows):
        col_moduli = (4, 4)
        row_moduli = []
        ok_rows = []
        for r in rows:
            # use a row modulus the row is compatible with
            for m in (2, 4):
                if all((c * cm) % m == 0 for c, cm in zip(r, col_moduli)):
                    ok_rows.append(r)
                    row_moduli.append(m)
                    break
        if not ok_rows:
            return
        out = solve_homogeneous_congruences(ok_rows, row_moduli, col_moduli)
        assert frozenset(out.elements()) == brute_solutions(
            ok_rows, row_moduli, col_moduli
        )


def hnf_rows(rows, ncols) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``: the
    generic reference the insertion kernel is checked against.

    Output rows are in echelon form with strictly increasing pivot columns,
    positive pivots, and entries above each pivot reduced into [0, pivot).
    The result is the unique such basis of the row lattice.
    """
    pool = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(ncols):
        while True:
            nz = [r for r in pool if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            pc = p[col]
            for r in nz[1:]:
                q = r[col] // pc
                if q:
                    for k in range(col, ncols):
                        r[k] -= q * p[k]
            pool = [r for r in pool if any(r)]
        nz = [r for r in pool if r[col] != 0]
        if nz:
            p = nz[0]
            pool.remove(p)
            if p[col] < 0:
                p = [-x for x in p]
            pivots.append((col, p))
    for idx in range(len(pivots)):
        col, p = pivots[idx]
        pc = p[col]
        for k in range(idx):
            r = pivots[k][1]
            q = r[col] // pc
            if q:
                for t in range(col, ncols):
                    r[t] -= q * p[t]
    return [p for _, p in pivots]


def test_hnf_rows_unique_for_equal_lattices():
    a = hnf_rows([[2, 1], [0, 3]], 2)
    b = hnf_rows([[2, 4], [2, 1], [0, 3]], 2)
    assert a == b


def test_hnf_rows_negative_entries():
    out = hnf_rows([[-2, 1]], 2)
    assert out == [[2, -1]]


# The insertion kernel behind every CanonicalSubgroup, checked against the
# generic hnf_rows on the generators plus the moduli rows.  Moduli are drawn
# without a divisibility order and include 1; entries may be negative.

mixed_moduli = st.lists(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]), min_size=0, max_size=5
)


def _reference_full_hnf(rows, moduli):
    n = len(moduli)
    rels = [[m if i == j else 0 for i in range(n)] for j, m in enumerate(moduli)]
    return hnf_rows([list(r) for r in rows] + rels, n)


NON_CHAIN = [(6, 4), (4, 6), (3, 2, 2), (2, 3, 4), (1, 6, 4), (9, 6)]
# One column: the solve's closed form, d = lcm_i(m_i/gcd(a_i, m_i)).
ONE_COLUMN = [(6,), (4,), (12,), (1,)]


def _rows_for(moduli, max_rows):
    n = len(moduli)
    return st.lists(
        st.lists(st.integers(-40, 40), min_size=n, max_size=n),
        min_size=0,
        max_size=max_rows,
    )


class TestInsertionKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        mixed_moduli.flatmap(lambda mod: st.tuples(st.just(mod), _rows_for(mod, 6)))
    )
    def test_full_hnf_matches_hnf_rows(self, case):
        moduli, rows = case
        sub = CanonicalSubgroup(moduli, rows)
        full = _reference_full_hnf(rows, moduli)
        assert [list(r) for r in sub.full_hnf] == full
        assert sub.order == prod(moduli) // prod(r[i] for i, r in enumerate(full))
        reduced = [tuple(x % m for x, m in zip(r, moduli)) for r in full]
        assert list(sub.basis) == [r for r in reduced if any(r)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        mixed_moduli.flatmap(
            lambda mod: st.tuples(st.just(mod), _rows_for(mod, 3), _rows_for(mod, 3))
        )
    )
    def test_sum_inserts_into_existing_hnf(self, case):
        moduli, g1, g2 = case
        s = CanonicalSubgroup(moduli, g1).sum(CanonicalSubgroup(moduli, g2))
        assert [list(r) for r in s.full_hnf] == _reference_full_hnf(g1 + g2, moduli)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(NON_CHAIN).flatmap(
            lambda mod: st.tuples(st.just(mod), _rows_for(mod, 2), _rows_for(mod, 2))
        )
    )
    def test_sum_and_intersect_non_chain_against_brute(self, case):
        moduli, g1, g2 = case
        s1 = CanonicalSubgroup(moduli, g1)
        s2 = CanonicalSubgroup(moduli, g2)
        e1 = brute_subgroup(g1, moduli)
        e2 = brute_subgroup(g2, moduli)
        assert frozenset(s1.sum(s2).elements()) == brute_subgroup(g1 + g2, moduli)
        meet = s1.intersect(s2)
        assert frozenset(meet.elements()) == e1 & e2
        assert meet == s2.intersect(s1)
        assert meet == CanonicalSubgroup(moduli, sorted(e1 & e2))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(NON_CHAIN + ONE_COLUMN).flatmap(
            lambda col: st.tuples(
                st.just(col),
                st.lists(
                    st.tuples(
                        st.sampled_from([2, 3, 4, 6, 12]),
                        st.lists(
                            st.integers(-12, 12), min_size=len(col), max_size=len(col)
                        ),
                    ),
                    min_size=0,
                    max_size=4,
                ),
            )
        )
    )
    def test_congruences_non_chain_against_enumeration(self, case):
        col_moduli, raw = case
        rows, row_moduli = _compatible_rows(raw, col_moduli)
        out = solve_homogeneous_congruences(rows, row_moduli, col_moduli)
        sols = brute_solutions(rows, row_moduli, col_moduli)
        assert out.moduli == col_moduli
        assert frozenset(out.elements()) == sols

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mixed_moduli.flatmap(lambda mod: st.tuples(st.just(mod), _rows_for(mod, 4))))
    def test_no_row_build_onto_its_own_form_is_the_subgroup(self, case):
        # a form that arrives with nothing to insert is taken as finished
        moduli, rows = case
        sub = CanonicalSubgroup(moduli, rows)
        again = CanonicalSubgroup(moduli, (), sub.full_hnf)
        assert again == sub
        assert (again.full_hnf, again.basis, again.order) == (sub.full_hnf, sub.basis, sub.order)

    def test_congruences_many_redundant_rows(self):
        col_moduli = (6, 4, 3)
        base = [([2, 0, 1], 3), ([3, 3, 0], 6), ([1, 1, 0], 2)]
        rows, row_moduli = [], []
        for c in range(1, 60):
            for r, m in base:
                rows.append([c * x for x in r])
                row_moduli.append(m)
            rows.append([0, 2 * c, 0])  # for odd c: x1 is even
            row_moduli.append(4)
        out = solve_homogeneous_congruences(rows, row_moduli, col_moduli)
        sols = brute_solutions(rows, row_moduli, col_moduli)
        assert frozenset(out.elements()) == sols
        assert 1 < len(sols) < prod(col_moduli)


def _compatible_rows(raw, col_moduli):
    """Scale each coefficient so that the row is defined modulo the column
    moduli: x * c becomes a multiple of the row modulus m."""
    rows, row_moduli = [], []
    for m, r in raw:
        rows.append([x * m // gcd(m, x * c) for x, c in zip(r, col_moduli)])
        row_moduli.append(m)
    return rows, row_moduli
