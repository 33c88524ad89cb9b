"""Hom groups between finite modules, computed exactly by congruence solving,
the maps from a module into each of its submodules, and endomorphism rings
materialized as finite rings.

A homomorphism M -> N is a matrix T with T . A_i = B_i . T modulo the target
orders for every ring basis action pair (A_i, B_i), plus order-compatibility
of the columns.  The full solution group is found in one congruence solve,
or, out of a module recorded as free, read off the target; element
enumeration is never used here (the brute-force path lives in the oracle
module).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import mul

from .algebra import (
    _FREE, FiniteRing, FiniteModule, Homomorphism, _BlindToLast, compose, memoized, scaling,
)
from .intlat import generated_subgroup, solve_homogeneous_congruences


class HomGroup(_BlindToLast, namedtuple("HomGroup", "source target generators subgroup")):
    """The abelian group Hom(M, N) with a canonical generating set: the maps
    of ``subgroup``'s canonical basis.  Equality, hash and repr leave out
    ``subgroup``, which the generators determine."""

    __slots__ = ()

    def __repr__(self):
        return (f"HomGroup(source={self.source!r}, target={self.target!r}, "
                f"generators={self.generators!r})")

    @property
    def order(self) -> int:
        return self.subgroup.order

    @property
    def group_invariants(self) -> tuple[int, ...]:
        return self.subgroup.invariants

    def elements(self):
        """All homomorphisms, deterministically ordered."""
        for flat in self.subgroup.elements():
            yield Homomorphism.from_flat(self.source, self.target, flat)

    def smith_basis(self) -> tuple[Homomorphism, ...]:
        """Generators realizing the invariant-factor decomposition."""
        return tuple(
            Homomorphism.from_flat(self.source, self.target, g) for g in self.subgroup.smith_gens
        )

    def coords(self, f: Homomorphism) -> tuple[int, ...]:
        return self.subgroup.coords(f.flatten())

    def from_coords(self, coords) -> Homomorphism:
        return Homomorphism.from_flat(self.source, self.target, self.subgroup.from_coords(coords))


def hom_group(source: FiniteModule, target: FiniteModule) -> HomGroup:
    """Hom(M, N) as a finite abelian group of matrices.

    A free M = R^n needs no solve: Hom(R^n, N) = N^n, spanned by the maps
    x -> p(x)*e_k, for p the projections of M onto its regular summands and
    e_k the generators of N.  Any other M solves its congruences.

    >>> from finmod.algebra import zn_ring, regular_module
    >>> end = hom_group(*(regular_module(zn_ring(4)),) * 2)
    >>> end.group_invariants
    (4,)
    """
    if source.ring is not target.ring and source.ring != target.ring:
        raise ValueError("modules over different rings")
    return _hom_group(source, target)


@memoized
def _hom_group(source, target):
    """``hom_group`` for M and N over one ring, memoized in M's analysis
    keyed by N.  A module over another ring that acts like M shares the
    analysis, so the rings are compared before the memo is read."""
    if source not in _FREE:
        sub = _solved_hom_subgroup(source, target)
    else:
        t = target.ngens
        units = [tuple(int(k == j) for j in range(t)) for k in range(t)]
        rows = [f.flatten() for f in _free_maps(source, target, units)]
        sub = generated_subgroup([e for e in target.inv_factors for _ in range(source.ngens)], rows)
    return HomGroup(
        source=source,
        target=target,
        generators=tuple(Homomorphism.from_flat(source, target, g) for g in sub.basis),
        subgroup=sub,
    )


def _free_maps(free, target, vectors):
    """The maps x -> p(x)*v, for p the projections of ``free``, a module
    recorded as free, onto its regular summands and v the ``vectors`` of
    ``target``.  Hom(R^n, N) = N^n, so they span Hom(free, N) for N the
    span of the v."""
    return [compose(scaling(p.target, target, v), p) for p in _FREE[free] for v in vectors]


@memoized
def maps_into(module, sub):
    """Maps M -> M spanning the maps from M into the submodule ``sub``: the
    Hom(M, sub) generators followed by the inclusion of ``sub``.  Built
    once per ``sub`` and shared by every product with right factor ``sub``.

    A free M = R^n needs no Hom solve: its maps are read off the basis rows
    of K (``_free_maps``).  Any other M solves for them in its own
    coordinates, as the nonzero T = H^T Y for H the basis rows of K."""
    if module in _FREE:
        return tuple(_free_maps(module, module, sub.basis))
    h, s = sub.basis, module.ngens
    cols = list(zip(*h))
    maps = (Homomorphism.of(module, module, [[sum(map(mul, c, y[j::s])) for j in range(s)] for c in cols])
            for y in _solved_hom_subgroup(module, module, h).basis)
    return tuple(f for f in maps if not f.is_zero())


def _solved_hom_subgroup(source, target, span=None):
    """Hom(M, N) as the solutions T of T . A_i = B_i . T, with the column
    order conditions, flattened row by row.  With ``span``, rows h_t of N,
    the maps into their span, as T = sum_t h_t^T Y[t] (the columns of such
    a map are combinations of the h_t): the solutions Y, row t modulo the
    order of h_t.  Without it the h_t are N's generators, and Y is T."""
    s, d, e = source.ngens, source.inv_factors, target.inv_factors
    h = span if span is not None else [[int(k == t) for k in range(len(e))] for t in range(len(e))]
    nonzero = [[(t, ht[k]) for t, ht in enumerate(h) if ht[k]] for k in range(len(e))]
    rows, nvars = [], len(h) * s
    for k, m in enumerate(e):
        for j in range(s):
            r = [0] * nvars
            r[j::s] = [d[j] * ht[k] % m for ht in h]  # d_j T[k][j]
            rows.append((r, m))
    for a, b in zip(source.actions, target.actions):
        a_cols = list(zip(*a))
        for k, (m, b_row) in enumerate(zip(e, b)):
            # -(B . h_t)[k] over t, which is -B[k] when the h_t are N's generators
            minus_bh = [-sum(map(mul, b_row, ht)) for ht in h] if span is not None else [-x for x in b_row]
            for j, a_col in enumerate(a_cols):  # (T . A - B . T)[k][j]
                r = [0] * nvars
                r[j::s] = minus_bh
                for t, c in nonzero[k]:
                    block = [c * x for x in a_col]
                    block[j] += r[t * s + j]
                    r[t * s:t * s + s] = block
                rows.append(([v % m for v in r], m))
    rows = [(r, m) for r, m in rows if any(r)]
    orders = [lcm(*(m // gcd(c, m) for c, m in zip(ht, e))) for ht in h]
    return solve_homogeneous_congruences([r for r, _ in rows], [m for _, m in rows],
                                         [o for o in orders for _ in range(s)])


class EndRing(namedtuple("EndRing", "module as_ring gens_as_homs")):
    """End(M) materialized as a finite ring; composition is multiplication.

    ``gens_as_homs`` is aligned index-by-index with the ring basis.
    """

    __slots__ = ()


@memoized
def end_ring(module: FiniteModule) -> EndRing:
    """The endomorphism ring, with basis the invariant-factor generators of
    Hom(M, M) in canonical order.  It is built without validation:
    composition is associative and the identity is its unit.  A zero module
    gets the one-element ring (rank 0).
    """
    group = hom_group(module, module)
    basis = group.smith_basis()
    ring = FiniteRing(
        add_orders=group.group_invariants,
        struct=tuple(tuple(group.coords(compose(f, g)) for g in basis) for f in basis),
        unit=group.coords(Homomorphism.identity(module)),
        labels=tuple(f"f{i}" for i in range(len(basis))),
        name=f"End({module.name})",
    )
    return EndRing(module=module, as_ring=ring, gens_as_homs=basis)
