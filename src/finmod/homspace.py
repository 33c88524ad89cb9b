"""Hom groups between finite modules, computed exactly by congruence solving,
the maps from a module into each of its submodules, and endomorphism rings
materialized as finite rings.

A homomorphism M -> N is a matrix T with T . A_i = B_i . T modulo the target
orders for every ring basis action pair (A_i, B_i), plus order-compatibility
of the columns.  The maps out of the regular module are read off the target,
those out of a recorded sum off its leaves, and those out of any other module
found in one congruence solve; element enumeration is never used here (the
brute-force path lives in the oracle module).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import mul

from .algebra import (_REGULAR, _SUMMANDS, FiniteRing, FiniteModule, Homomorphism, _BlindToLast,
                      compose, memoized, scaling)
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
    """Hom(M, N) as a finite abelian group of matrices, spanned by the maps
    ``_maps_out`` lists into N's generators.

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
    t, e = target.ngens, target.inv_factors
    units = [tuple(int(k == j) for j in range(t)) for k in range(t)]
    rows = [f.flatten() for f in _maps_out(source, target, units)]
    sub = generated_subgroup([x for x in e for _ in range(source.ngens)], rows)
    return HomGroup(
        source=source,
        target=target,
        generators=tuple(Homomorphism.from_flat(source, target, g) for g in sub.basis),
        subgroup=sub,
    )


@memoized
def maps_into(module, sub):
    """Maps M -> M spanning the maps from M into the submodule ``sub``
    (``_maps_out``).  Built once per ``sub`` and shared by every product
    with right factor ``sub``."""
    return tuple(_maps_out(module, module, sub.basis))


def _maps_out(source, target, span):
    """Maps M -> N spanning Hom(M, K), for K the span of the rows ``span``
    of N.  Out of the regular module, R itself with its ring, they are
    r -> r*v for v in ``span``.  Out of a recorded sum they are the maps out
    of each leaf after the projection onto it, since a direct sum is a
    biproduct: Hom(A (+) B, K) = Hom(A, K) x Hom(B, K), and a leaf that
    recurs, as in M (+) M, is read once.  Out of any other M
    they are the nonzero T = H^T Y of the congruence solve, for H the rows
    ``span``.  Z2 over Z12 acts like the regular Z2 but is not it, so the
    whole module is compared, ring included."""
    if source == _REGULAR.get(source.ring):
        return [scaling(source, target, v) for v in span]
    built = _SUMMANDS.get(source)
    if built:
        read = {}  # leaf -> its maps, read once however often it recurs
        for p in built[2]:
            if p.target not in read:
                read[p.target] = _maps_out(p.target, target, span)
        return [compose(f, p) for p in built[2] for f in read[p.target]]
    s, cols = source.ngens, list(zip(*span))
    maps = (Homomorphism.of(source, target, [[sum(map(mul, c, y[j::s])) for j in range(s)] for c in cols])
            for y in _solved_hom_subgroup(source, target, span).basis)
    return [f for f in maps if not f.is_zero()]


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
