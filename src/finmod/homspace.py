"""Hom groups between finite modules, computed exactly by congruence solving,
and endomorphism rings materialized as finite rings.

A homomorphism M -> N is a matrix T with T . A_i = B_i . T modulo the target
orders for every ring basis action pair (A_i, B_i), plus order-compatibility
of the columns.  The full solution group is found in one congruence solve;
element enumeration is never used here (the brute-force path lives in the
oracle module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .algebra import FiniteRing, FiniteModule, ModuleElement, analysis, validate_ring
from .config import DEFAULT_CAPS, CapExceeded
from .intlat import CanonicalSubgroup, solve_homogeneous_congruences
from .lattice import Submodule


@dataclass(frozen=True)
class Homomorphism:
    """Module map stored as a (target gens) x (source gens) integer matrix,
    rows reduced modulo the target orders."""

    source: FiniteModule
    target: FiniteModule
    matrix: tuple[tuple[int, ...], ...]

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
        if x.module != self.source:
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
    if g.target != f.source:
        raise ValueError("maps are not composable")
    # A map into a zero module has no rows, yet has one (empty) column per
    # source generator.
    cols = list(zip(*g.matrix)) or [()] * g.source.ngens
    rows = tuple(
        tuple(sum(map(mul, frow, col)) % ek for col in cols)
        for frow, ek in zip(f.matrix, f.target.inv_factors)
    )
    return Homomorphism(g.source, f.target, rows)


def image(f: Homomorphism, sub: Submodule | None = None) -> Submodule:
    """f(sub), or the image of the whole source, as a submodule of the
    target.  The images of an additive basis already span a submodule."""
    if sub is None:
        return Submodule.from_subgroup_rows(f.target, zip(*f.matrix))
    return Submodule.from_subgroup_rows(f.target, [f.apply_vec(r) for r in sub.basis])


def kernel(f: Homomorphism) -> Submodule:
    return Submodule(
        f.source,
        solve_homogeneous_congruences(f.matrix, f.target.inv_factors, f.source.inv_factors),
    )


@dataclass(frozen=True)
class HomGroup:
    """The abelian group Hom(M, N) with a canonical generating set."""

    source: FiniteModule
    target: FiniteModule
    generators: tuple[Homomorphism, ...]
    subgroup: CanonicalSubgroup = field(compare=False, repr=False)

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

    >>> from finmod.algebra import zn_ring, regular_module
    >>> end = hom_group(*(regular_module(zn_ring(4)),) * 2)
    >>> end.group_invariants
    (4,)
    """
    if source.ring != target.ring:
        raise ValueError("modules over different rings")
    memo = analysis(source).homs
    hit = memo.get(target)
    if hit is not None:
        return hit
    s, d = source.ngens, source.inv_factors
    t, e = target.ngens, target.inv_factors
    nvars = t * s
    col_moduli = tuple(e[k] for k in range(t) for _ in range(s))
    rows = []
    row_moduli = []
    for k in range(t):
        for j in range(s):
            if d[j] % e[k]:
                r = [0] * nvars
                r[k * s + j] = d[j]
                rows.append(r)
                row_moduli.append(e[k])
    for i in range(source.ring.rank):
        a = source.actions[i]
        b = target.actions[i]
        for k in range(t):
            for j in range(s):
                r = [0] * nvars
                for l in range(s):
                    if a[l][j]:
                        r[k * s + l] += a[l][j]
                for l in range(t):
                    if b[k][l]:
                        r[l * s + j] -= b[k][l]
                if any(v % e[k] for v in r):
                    rows.append([v % e[k] for v in r])
                    row_moduli.append(e[k])
    sub = solve_homogeneous_congruences(rows, row_moduli, col_moduli)
    group = HomGroup(
        source=source,
        target=target,
        generators=tuple(Homomorphism.from_flat(source, target, g) for g in sub.basis),
        subgroup=sub,
    )
    memo[target] = group
    return group


@dataclass(frozen=True)
class EndRing:
    """End(M) materialized as a finite ring; composition is multiplication.

    ``gens_as_homs`` is aligned index-by-index with the ring basis.
    """

    module: FiniteModule
    as_ring: FiniteRing
    gens_as_homs: tuple[Homomorphism, ...]


def end_ring(module: FiniteModule, caps=DEFAULT_CAPS) -> EndRing:
    """The endomorphism ring, with basis the invariant-factor generators of
    Hom(M, M) in canonical order.

    A zero module gets the one-element ring (rank 0), exempt from the unit
    requirement by convention.
    """
    memo = analysis(module).end_ring
    hit = memo.get(caps)
    if hit is not None:
        return hit
    group = hom_group(module, module)
    if group.order > caps.max_module_order:
        raise CapExceeded("endomorphism ring order", group.order, caps.max_module_order)
    if group.order == 1:
        ring = FiniteRing(
            add_orders=(),
            struct=(),
            unit=(),
            labels=(),
            name=f"End({module.name})",
        )
        out = memo[caps] = EndRing(module=module, as_ring=ring, gens_as_homs=())
        return out
    basis = group.smith_basis()
    rank = len(basis)
    struct = tuple(
        tuple(group.coords(compose(basis[i], basis[j])) for j in range(rank))
        for i in range(rank)
    )
    ring = validate_ring(
        FiniteRing(
            add_orders=group.group_invariants,
            struct=struct,
            unit=group.coords(Homomorphism.identity(module)),
            labels=tuple(f"f{i}" for i in range(rank)),
            name=f"End({module.name})",
        )
    )
    out = memo[caps] = EndRing(module=module, as_ring=ring, gens_as_homs=basis)
    return out


def _omega(n: int) -> int:
    """Number of prime factors with multiplicity."""
    count = 0
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    if n > 1:
        count += 1
    return count


def composition_length(module: FiniteModule) -> int:
    """Length of any maximal chain of subgroups; bounds every strictly
    decreasing chain of submodules."""
    return sum(_omega(d) for d in module.inv_factors)


def is_nilpotent_endo(f: Homomorphism):
    """(True, least index) when some power of f is zero, else (False, None).

    The image chain of an endomorphism strictly decreases until it
    stabilizes, so checking up to the composition length decides nilpotency.
    """
    if f.source != f.target:
        raise ValueError("nilpotency is about endomorphisms")
    bound = composition_length(f.source)
    if f.is_zero():
        return True, 1
    power = f
    for k in range(1, bound + 1):
        if power.is_zero():
            return True, k
        power = compose(power, f)
    return False, None
