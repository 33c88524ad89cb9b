"""Hom groups between finite modules, computed exactly by congruence solving,
and endomorphism rings materialized as finite rings.

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
    FiniteRing, FiniteModule, ModuleElement, _BlindToLast, memoized,
)
from .intlat import _generated, generated_subgroup, solve_homogeneous_congruences
from .lattice import Submodule


class Homomorphism(namedtuple("Homomorphism", "source target matrix")):
    """Module map stored as a (target gens) x (source gens) integer matrix,
    rows reduced modulo the target orders."""

    __slots__ = ()

    @classmethod
    def of(cls, source, target, rows) -> "Homomorphism":
        e = target.inv_factors
        mat = tuple(
            tuple(v % e[k] for v in row) for k, row in enumerate(rows)
        )
        return cls(source, target, mat)

    @classmethod
    def zero(cls, source, target) -> "Homomorphism":
        return cls(source, target, tuple((0,) * source.ngens for _ in range(target.ngens)))

    @classmethod
    def identity(cls, module) -> "Homomorphism":
        s = module.ngens
        return cls(
            module,
            module,
            tuple(tuple(1 if k == j else 0 for j in range(s)) for k in range(s)),
        )

    @classmethod
    def from_flat(cls, source, target, flat) -> "Homomorphism":
        """The map whose ``flatten`` is ``flat``: matrix row k is
        flat[k*s:(k+1)*s] for s source generators."""
        s = source.ngens
        rows = tuple(tuple(flat[k * s:(k + 1) * s]) for k in range(target.ngens))
        return cls(source, target, rows)

    def apply_vec(self, vec) -> tuple[int, ...]:
        return tuple(
            sum(map(mul, row, vec)) % ek
            for row, ek in zip(self.matrix, self.target.inv_factors)
        )

    def apply(self, x: ModuleElement) -> ModuleElement:
        if x.module is not self.source and x.module != self.source:
            raise ValueError("element not in the source module")
        return ModuleElement(self.target, self.apply_vec(x.coeffs))

    def flatten(self) -> tuple[int, ...]:
        return tuple(v for row in self.matrix for v in row)

    def is_zero(self) -> bool:
        return not any(self.flatten())

    def __repr__(self):
        return f"Homomorphism({self.source.name} -> {self.target.name}, {self.matrix})"


def compose(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise ValueError("maps are not composable")
    # A map into a zero module has no rows, yet has one (empty) column per
    # source generator.
    cols = list(zip(*g.matrix)) or [()] * g.source.ngens
    rows = tuple(
        tuple(sum(map(mul, frow, col)) % ek for col in cols)
        for frow, ek in zip(f.matrix, f.target.inv_factors)
    )
    return Homomorphism(g.source, f.target, rows)


def scaling(free: FiniteModule, module: FiniteModule, g) -> Homomorphism:
    """The map r -> r*g from ``free``, the regular module, into ``module``."""
    cols = [module.reduce([sum(map(mul, row, g)) for row in mat]) for mat in module.actions]
    return Homomorphism(free, module, tuple(zip(*cols)))


def image(f: Homomorphism, sub: Submodule | None = None) -> Submodule:
    """f(sub), or the image of the whole source, as a submodule of the
    target.  The images of an additive basis already span a submodule."""
    rows = tuple(zip(*f.matrix)) if sub is None else tuple(map(f.apply_vec, sub.basis))
    return Submodule(f.target, _generated(f.target.inv_factors, rows))


def kernel(f: Homomorphism) -> Submodule:
    return Submodule(
        f.source,
        solve_homogeneous_congruences(f.matrix, f.target.inv_factors, f.source.inv_factors),
    )


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


@memoized
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
    projections = source.analysis.free
    if projections is None:
        sub = _solved_hom_subgroup(source, target)
    else:
        t = target.ngens
        units = [tuple(int(k == j) for j in range(t)) for k in range(t)]
        rows = [compose(scaling(p.target, target, u), p).flatten() for p in projections for u in units]
        sub = generated_subgroup([e for e in target.inv_factors for _ in range(source.ngens)], rows)
    return HomGroup(
        source=source,
        target=target,
        generators=tuple(Homomorphism.from_flat(source, target, g) for g in sub.basis),
        subgroup=sub,
    )


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
