"""Submodules in canonical form, full lattice enumeration, and the module
predicates built on them (uniform dimension, retractability,
quasi-projectivity, Goldie profile).

A submodule is an action-closed subgroup stored as a canonical Hermite basis,
so equality and hashing are structural.  Enumeration order is always
(order, canonical basis), which makes reports and counterexamples
deterministic and minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .algebra import FiniteModule, ModuleElement, analysis, quotient_module
from .config import DEFAULT_CAPS, CapExceeded
from .intlat import CanonicalSubgroup, generated_subgroup


class Submodule:
    """Action-closed subgroup of a finite module, canonically represented.

    Its hash is its subgroup's stored hash: a hash of integers only, so it
    is the same in every interpreter and may be pickled."""

    __slots__ = ("module", "subgroup", "_hash")

    def __init__(self, module: FiniteModule, subgroup: CanonicalSubgroup):
        self.module = module
        self.subgroup = subgroup
        self._hash = subgroup._hash

    @classmethod
    def span(cls, module: FiniteModule, generator_rows) -> "Submodule":
        """Smallest submodule containing the given element vectors."""
        acts = module.actions
        closed = [[sum(map(mul, row, g)) for row in mat] for g in generator_rows for mat in acts]
        return cls(module, CanonicalSubgroup(module.inv_factors, closed))

    @classmethod
    def from_subgroup_rows(cls, module: FiniteModule, rows) -> "Submodule":
        """Wrap additive generators already known to span an action-closed
        subgroup (kernels, images, sums of submodules).  The build is served
        from ``intlat``'s bounded row cache."""
        return cls(module, generated_subgroup(module.inv_factors, rows))

    @classmethod
    def zero(cls, module: FiniteModule) -> "Submodule":
        return cls(module, generated_subgroup(module.inv_factors, ()))

    @classmethod
    def full(cls, module: FiniteModule) -> "Submodule":
        rows = [
            [1 if t == j else 0 for t in range(module.ngens)]
            for j in range(module.ngens)
        ]
        return cls(module, generated_subgroup(module.inv_factors, rows))

    @property
    def basis(self):
        return self.subgroup.basis

    @property
    def order(self) -> int:
        return self.subgroup.order

    def is_zero(self) -> bool:
        return self.order == 1

    def is_full(self) -> bool:
        return self.order == self.module.order

    def contains(self, vec) -> bool:
        if isinstance(vec, ModuleElement):
            vec = vec.coeffs
        return self.subgroup.contains(vec)

    def le(self, other: "Submodule") -> bool:
        self._check(other)
        if other.order % self.order:
            return False
        return other.subgroup.contains_subgroup(self.subgroup)

    def lt(self, other: "Submodule") -> bool:
        return self.le(other) and self != other

    def sum(self, other: "Submodule") -> "Submodule":
        self._check(other)
        return Submodule(self.module, self.subgroup.sum(other.subgroup))

    def intersect(self, other: "Submodule") -> "Submodule":
        self._check(other)
        return Submodule(self.module, self.subgroup.intersect(other.subgroup))

    def elements(self):
        for vec in self.subgroup.elements():
            yield ModuleElement(self.module, vec)

    def sort_key(self):
        return (self.order, self.subgroup.basis)

    def describe(self) -> str:
        if self.is_zero():
            return "<0>"
        terms = []
        for row in self.basis:
            parts = []
            for j, c in enumerate(row):
                if c == 0:
                    continue
                label = self.module.generator_label(j)
                if label == "1":
                    parts.append(str(c))
                elif c == 1:
                    parts.append(label)
                else:
                    parts.append(f"{c}*{label}")
            terms.append("+".join(parts))
        return "<" + ", ".join(terms) + ">"

    def _check(self, other):
        if self.module != other.module:
            raise ValueError("submodules of different modules")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.subgroup == other.subgroup and self.module == other.module

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Submodule({self.describe()}, order={self.order})"


def cyclic_submodule(module: FiniteModule, x) -> Submodule:
    """Smallest action-closed subgroup containing x."""
    if isinstance(x, ModuleElement):
        x = x.coeffs
    return Submodule.span(module, [x])


def distinct_cyclic_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """All distinct cyclic submodules, in canonical order."""
    memo = analysis(module).cyclics
    hit = memo.get(caps)
    if hit is None:
        if module.order > caps.max_module_order:
            raise CapExceeded("module order", module.order, caps.max_module_order)
        seen = dict.fromkeys(cyclic_submodule(module, x) for x in module.elements())
        hit = memo[caps] = tuple(sorted(seen, key=Submodule.sort_key))
    return list(hit)


def all_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """Every action-closed subgroup, in canonical order, found by closing the
    distinct cyclic submodules under joins."""
    memo = analysis(module).lattice
    hit = memo.get(caps)
    if hit is None:
        # Cyclic members are the cyclics memo's own objects, so the two share them.
        members = _join_closure(distinct_cyclic_submodules(module, caps), caps, "lattice members")
        hit = memo[caps] = tuple(sorted(members, key=Submodule.sort_key))
    return list(hit)


def _join_closure(generators, caps, what):
    """Every sum of the given submodules, ``generators[0]`` being the zero
    submodule; raises CapExceeded past ``caps.max_lattice`` members."""
    zero = generators[0]
    members = {zero: None}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for c in generators:
            if c.le(cur):
                continue
            nxt = c if cur is zero else cur.sum(c)
            if nxt not in members:
                if len(members) >= caps.max_lattice:
                    raise CapExceeded(what, len(members), caps.max_lattice)
                members[nxt] = None
                frontier.append(nxt)
    return members.keys()


class SubmoduleEmbedding:
    """A submodule presented as a standalone module with its inclusion."""

    __slots__ = ("module", "inclusion", "subgroup")

    def __init__(self, module, inclusion, subgroup):
        self.module = module
        self.inclusion = inclusion
        self.subgroup = subgroup


def submodule_as_module(sub: Submodule) -> SubmoduleEmbedding:
    """Present an action-closed submodule as a module in its own right.

    The new module's generators are the invariant-factor generators of the
    subgroup; the inclusion matrix has those generators as columns.
    """
    from .homspace import Homomorphism

    M = sub.module
    memo = analysis(M).embeddings
    hit = memo.get(sub)
    if hit is not None:
        return hit
    group = sub.subgroup
    invariants = group.invariants
    gens = group.smith_gens
    t = len(invariants)
    # column k of each action matrix holds the coordinates of mat @ gens[k];
    # coordinates are reduced, and an action-closed subgroup is a module, so
    # the module is built without validation
    actions = tuple(
        tuple(zip(*[group.coords([sum(map(mul, row, g)) for row in mat]) for g in gens]))
        for mat in M.actions
    )
    sub_mod = FiniteModule(M.ring, invariants, actions, name=f"{M.name}|{sub.describe()}")
    incl = Homomorphism(
        source=sub_mod,
        target=M,
        matrix=tuple(
            tuple(gens[k][j] for k in range(t)) for j in range(M.ngens)
        ),
    )
    hit = memo[sub] = SubmoduleEmbedding(sub_mod, incl, group)
    return hit


def fully_invariant_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """Submodules stable under every endomorphism, in canonical order.

    A fully invariant submodule is the sum of the End-closures of its cyclic
    submodules, and the End-closure of C is spanned by f(x) over the End
    generators f and a basis x of C.  So these are the sums of the closures
    of the distinct cyclics; ``caps.max_lattice`` bounds their number.
    """
    from .homspace import hom_group

    memo = analysis(module).fully_invariant
    hit = memo.get(caps)
    if hit is None:
        gens = hom_group(module, module).generators
        closures = dict.fromkeys(
            Submodule.from_subgroup_rows(module, {f.apply_vec(x) for f in gens for x in c.basis})
            for c in distinct_cyclic_submodules(module, caps)
        )
        members = _join_closure(list(closures), caps, "fully invariant members")
        hit = memo[caps] = tuple(sorted(members, key=Submodule.sort_key))
    return list(hit)


def socle(module: FiniteModule, caps=DEFAULT_CAPS) -> Submodule:
    """Sum of the minimal nonzero submodules."""
    return _socle_data(module, caps)[0]


def uniform_dimension(module: FiniteModule, caps=DEFAULT_CAPS) -> int:
    """Number of simple summands of the socle.

    Every nonzero submodule of a finite module contains a minimal one and the
    socle is essential, so this equals the maximal size of an independent
    family of nonzero submodules.
    """
    return _socle_data(module, caps)[1]


def _simple_submodules(module: FiniteModule, caps):
    """Nonzero distinct cyclics with no smaller nonzero cyclic inside; a
    non-simple one contains a simple one of smaller order, which comes first."""
    simples = []
    for c in distinct_cyclic_submodules(module, caps):
        if not c.is_zero() and not any(s.le(c) for s in simples):
            simples.append(c)
    return simples


def _socle_data(module: FiniteModule, caps):
    total = Submodule.zero(module)
    count = 0
    for a in _simple_submodules(module, caps):
        if not a.le(total):
            total = total.sum(a)
            count += 1
    return total, count


def annihilator_lattice(module: FiniteModule, caps=DEFAULT_CAPS):
    """The annihilators Ann_M(S), the common kernels of subsets S of End(M),
    in canonical order; M itself is the empty one.

    Ann_M(S) is the annihilator of the left ideal S generates, and of that
    ideal's additive generators.  So the family is the set of submodules K
    closed under cl(K) = Ann_M(Ann_End(K)), and cl(K) takes two congruence
    solves; no End element is enumerated.  |End| above
    ``caps.max_hom_elements`` raises CapExceeded before any lattice is
    listed: that cap only decides when the family is reported."""
    from .homspace import hom_group
    from .radical import end_left_annihilator, kernel_intersection

    memo = analysis(module).annihilators
    hit = memo.get(caps)
    if hit is None:
        end = hom_group(module, module)
        if end.order > caps.max_hom_elements:
            raise CapExceeded("endomorphism count", end.order, caps.max_hom_elements)
        hit = memo[caps] = tuple(
            k for k in all_submodules(module, caps)
            if kernel_intersection(module, end_left_annihilator(module, k.basis)[0]) == k
        )
    return list(hit)


def is_retractable(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Nonzero maps into every nonzero submodule.  Each contains a simple S,
    and a nonzero map into S is one into it, so the simples S suffice."""
    from .homspace import hom_group

    memo = analysis(module).retractable
    hit = memo.get(caps)
    if hit is None:
        hit = memo[caps] = all(
            hom_group(module, submodule_as_module(s).module).order > 1
            for s in _simple_submodules(module, caps)
        )
    return hit


def is_quasi_projective(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Lifting property against the module's own quotients."""
    return is_projective_relative(module, module, caps)


def is_projective_relative(x: FiniteModule, y: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Whether x is y-projective: the map Hom(x, y) -> Hom(x, y/K) must be
    onto for every submodule K of y.

    A direct sum is N-projective iff each summand is, and A is
    (N1 (+) N2)-projective iff it is N1- and N2-projective (Anderson & Fuller,
    Rings and Categories of Modules, 16.10 and 16.12), so a side recorded as
    a direct sum is split instead of enumerating its lattice.
    """
    x_parts, y_parts = analysis(x).summands, analysis(y).summands
    memo = analysis(x).projective
    hit = memo.get((y, caps))
    if hit is None:
        if x_parts:
            hit = all(is_projective_relative(a, y, caps) for a in x_parts)
        elif y_parts:
            hit = all(is_projective_relative(x, b, caps) for b in y_parts)
        else:
            hit = _lifts_to_quotients(x, y, caps)
        memo[(y, caps)] = hit
    return hit


def _lifts_to_quotients(x, y, caps):
    from .homspace import compose, hom_group

    gens = hom_group(x, y).generators
    for k_sub in all_submodules(y, caps):
        quot, proj = quotient_module(y, k_sub)
        onto = hom_group(x, quot).subgroup
        rows = [compose(proj, h).flatten() for h in gens]
        if CanonicalSubgroup(onto.moduli, rows).order != onto.order:
            return False
    return True


@dataclass(frozen=True)
class PredicateProfile:
    """Predicate summary for one module.  A finite module is always Goldie
    and noetherian, with the ascending chain condition on annihilators, so
    ``is_goldie`` is always True."""

    is_quasi_projective: bool
    is_retractable: bool
    is_goldie: bool
    uniform_dim: int
    annihilator_lattice_size: int | None = None


def is_goldie(module: FiniteModule, caps=DEFAULT_CAPS) -> PredicateProfile:
    """Assemble the predicate profile.

    The size of the annihilator lattice is recorded as evidence for the
    chain condition, or None past the caps: above ``max_hom_elements``
    endomorphisms, or past the lattice and order caps.  Finiteness of the
    uniform dimension is automatic.
    """
    try:
        ann_size = len(annihilator_lattice(module, caps))
    except CapExceeded:
        ann_size = None
    return PredicateProfile(
        is_quasi_projective=is_quasi_projective(module, caps),
        is_retractable=is_retractable(module, caps),
        is_goldie=True,
        uniform_dim=uniform_dimension(module, caps),
        annihilator_lattice_size=ann_size,
    )
