"""Submodules in canonical form, full lattice enumeration, and the module
predicates built on them (uniform dimension, retractability,
quasi-projectivity, Goldie profile).

A submodule is an action-closed subgroup stored as a canonical Hermite basis,
so equality and hashing are structural, and each module keeps one object per
distinct submodule.  Enumeration order is always (order, canonical basis),
which makes reports and counterexamples deterministic and minimal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .algebra import FiniteModule, ModuleElement, analysis, quotient_module
from .config import DEFAULT_CAPS, CapExceeded, Caps
from .intlat import CanonicalSubgroup, _intern, generated_subgroup, solve_homogeneous_congruences


class Submodule:
    """Action-closed subgroup of a finite module, canonically represented.

    ``Submodule(module, subgroup)`` returns the one instance, over the
    interned subgroup, that ``analysis(module).submodules`` holds; a copy
    unpickles as it.  Equality compares structure after identity, since
    ``analysis.cache_clear()`` starts a new table.  The hash is the
    subgroup's, of integers only, so it is the same in every interpreter."""

    __slots__ = ("module", "subgroup", "_hash")

    def __new__(cls, module: FiniteModule, subgroup: CanonicalSubgroup):
        table = analysis(module).submodules
        self = table.get(subgroup)
        if self is None:
            self = object.__new__(cls)
            self.module, self.subgroup = module, _intern(subgroup)
            self._hash = subgroup._hash
            table[self.subgroup] = self
        return self

    def __reduce__(self):
        return Submodule, (self.module, self.subgroup)

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
    """All distinct cyclic submodules, in canonical order.  R(kx) = Rx for k
    prime to the additive order of x, so one x per <x> is spanned."""
    memo = analysis(module).cyclics
    hit = memo.get(caps)
    if hit is None:
        if module.order > caps.max_module_order:
            raise CapExceeded("module order", module.order, caps.max_module_order)
        e, covered, spanned = module.inv_factors, set(), {}
        for x in (v.coeffs for v in module.elements()):
            if x not in covered:
                n = lcm(*(d // gcd(c, d) for c, d in zip(x, e)))
                units = (k for k in range(2, n) if gcd(k, n) == 1)
                covered.update(tuple(k * c % d for c, d in zip(x, e)) for k in units)
                spanned[cyclic_submodule(module, x)] = None
        hit = memo[caps] = tuple(sorted(spanned, key=Submodule.sort_key))
    return list(hit)


def all_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """Every action-closed subgroup, in canonical order, reached from zero
    through upper covers formed with the join-irreducible cyclics; each
    member's covers go to ``analysis(module).covers[caps]``."""
    memo = analysis(module)
    hit = memo.lattice.get(caps)
    if hit is None:
        cyclics = distinct_cyclic_submodules(module, caps)
        covers = _join_closure(cyclics[0], _join_irreducible(cyclics), caps, "lattice members")
        memo.covers[caps] = covers
        hit = memo.lattice[caps] = tuple(sorted(covers, key=Submodule.sort_key))
    return list(hit)


def _join_irreducible(cyclics):
    """The pairs (C, C-) of the nonzero cyclics C that are not the sum C- of
    the cyclics strictly below them; C- is then the largest proper submodule
    of C.  Those below C come first in canonical order, and each is a sum of
    the irreducibles found already."""
    found = []
    for c in cyclics[1:]:
        rows = [r for j, _ in found if j.le(c) for r in j.basis]
        below = Submodule(c.module, CanonicalSubgroup(c.module.inv_factors, rows))
        if below.order != c.order:
            found.append((c, below))
    return found


def _join_closure(zero, generators, caps, what):
    """The members reached from ``zero`` by adding generators, each mapped to
    the tuple of the members formed from it; raises CapExceeded past
    ``caps.max_lattice`` members.  ``generators`` are pairs (G, F), and G is
    added to each member X that holds F but not G.  With F = 0 that forms
    every X + G.  With G join-irreducible and F = G-, (X + G)/X = G/(G meet
    X) is simple iff G meet X = G-, so it forms exactly the upper covers of X.
    Within one closure each pair (X, G) comes up once, so the sums bypass
    the sum cache."""
    module, members = zero.module, {zero}
    covers = {}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        formed = {}
        for g, floor in generators:
            if not floor.le(cur) or g.le(cur):
                continue
            nxt = g if cur is zero else Submodule(
                module, CanonicalSubgroup(module.inv_factors, g.basis, cur.subgroup.full_hnf))
            if nxt not in members:
                if len(members) >= caps.max_lattice:
                    raise CapExceeded(what, len(members), caps.max_lattice)
                members.add(nxt)
                frontier.append(nxt)
            formed[nxt] = None
        covers[cur] = tuple(formed)
    return covers


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
    """Submodules stable under every endomorphism, in canonical order;
    ``caps.max_lattice`` bounds their number.  A recorded direct sum takes
    them from its summands (``_fully_invariant_sums``), any other module
    from the End-closures of its cyclics (``_end_closures``)."""
    info = analysis(module)
    hit = info.fully_invariant.get(caps)
    if hit is None:
        members = (_fully_invariant_sums(module, *info.summands, caps) if info.summands
                   else _end_closures(module, caps))
        hit = info.fully_invariant[caps] = tuple(sorted(members, key=Submodule.sort_key))
    return list(hit)


def _end_closures(module, caps):
    """A fully invariant submodule is the sum of the End-closures of its
    cyclic submodules, and the End-closure of C is spanned by f(x) over the
    End generators f and a basis x of C.  So the members are the sums of the
    closures of the distinct cyclics."""
    from .homspace import hom_group

    gens = hom_group(module, module).generators
    zero, *closures = dict.fromkeys(
        Submodule.from_subgroup_rows(module, {f.apply_vec(x) for f in gens for x in c.basis})
        for c in distinct_cyclic_submodules(module, caps)
    )
    return _join_closure(zero, [(g, zero) for g in closures], caps, "fully invariant members")


def _fully_invariant_sums(module, a, b, caps):
    """FI(A (+) B): the X (+) Y, through the recorded injections, for X in
    FI(A) and Y in FI(B) with Hom(A, B) X <= Y and Hom(B, A) Y <= X.  The
    idempotents e_A and e_B are endomorphisms, so a fully invariant U is
    e_A U (+) e_B U, and an endomorphism keeps X (+) Y iff each block of its
    matrix does; the maps that keep it form a subgroup, so the generators of
    each Hom group decide."""
    from .homspace import hom_group

    _, (inj_a, inj_b), _ = analysis(a).sums[b]
    xs, ys = fully_invariant_submodules(a, caps), fully_invariant_submodules(b, caps)

    def pushed(src, dst, sub):  # Hom(src, dst) sub
        gens = hom_group(src, dst).generators
        return Submodule.from_subgroup_rows(dst, [g.apply_vec(v) for g in gens for v in sub.basis])

    into_b, into_a = {x: pushed(a, b, x) for x in xs}, {y: pushed(b, a, y) for y in ys}
    members = []
    for x in xs:
        for y in ys:
            if into_b[x].le(y) and into_a[y].le(x):
                if len(members) >= caps.max_lattice:
                    raise CapExceeded("fully invariant members", len(members), caps.max_lattice)
                rows = [inj_a.apply_vec(v) for v in x.basis] + [inj_b.apply_vec(v) for v in y.basis]
                members.append(Submodule.from_subgroup_rows(module, rows))
    return members


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
    closed under cl(K) = Ann_M(Ann_End(K)).  cl(K) > K iff it holds an upper
    cover K' of K, that is iff Ann_End(K') = Ann_End(K).  Ann_End(K') lies in
    Ann_End(K), so K is closed iff every cover has more restrictions f|K'
    (f in End(M)) than K has: their number is |End| / |Ann_End|, the order
    of the subgroup spanned by the generators' values on a basis of K.  One
    HNF per member; no End element is enumerated.  |End| above
    ``caps.max_hom_elements`` raises CapExceeded before any lattice is
    listed: that cap only decides when the family is reported."""
    from .homspace import hom_group

    memo = analysis(module).annihilators
    hit = memo.get(caps)
    if hit is None:
        end = hom_group(module, module)
        if end.order > caps.max_hom_elements:
            raise CapExceeded("endomorphism count", end.order, caps.max_hom_elements)
        lattice, covers = all_submodules(module, caps), analysis(module).covers[caps]
        e, gens = module.inv_factors, [f.matrix for f in end.generators]

        def restrictions(k):  # |End| / |Ann_End(K)|
            rows = [[sum(map(mul, row, x)) for x in k.basis for row in g] for g in gens]
            return CanonicalSubgroup(e * len(k.basis), rows).order

        size = {k: restrictions(k) for k in lattice}
        hit = memo[caps] = tuple(k for k in lattice if all(size[c] > size[k] for c in covers[k]))
    return list(hit)


def is_retractable(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Nonzero maps into every nonzero submodule.  Read off the construction
    for a free module (Hom(R^n, K) holds K), for R/ann(M)
    (``_is_regular_quotient``), and for a recorded sum of two retractable
    modules: a simple S <= A (+) B is isomorphic to its nonzero projection
    into A or into B, which receives a nonzero map.  Otherwise the simple
    submodules decide (``_maps_onto_simples``)."""
    info = analysis(module)
    hit = info.retractable.get(caps)
    if hit is None:
        hit = info.retractable[caps] = (
            info.free
            or info.summands is not None and all(is_retractable(a, caps) for a in info.summands)
            or _is_regular_quotient(module, caps)
            or _maps_onto_simples(module, caps))
    return hit


def _maps_onto_simples(module, caps):
    """Each nonzero submodule contains a simple S, and a nonzero map into S
    is one into it, so nonzero maps onto the simples S suffice."""
    from .homspace import hom_group

    return all(
        hom_group(module, submodule_as_module(s).module).order > 1
        for s in _simple_submodules(module, caps)
    )


def _is_regular_quotient(module, caps):
    """Whether M is R/ann(M): cyclic, with |M| |ann_R(M)| = |R|.  For M = Rm,
    ann(m) holds ann(M) and has order |R|/|M|, so the two are equal and M
    is the regular module of S = R/ann(M).  Submodules and Hom groups over R
    are those over S, so M is projective over S, hence quasi-projective, and
    retractable: Hom(S, L) = L for every left ideal L of S."""
    ring, s = module.ring, module.ngens
    rows = [[mat[k][j] for mat in module.actions] for j in range(s) for k in range(s)]
    ann = solve_homogeneous_congruences(rows, module.inv_factors * s, ring.add_orders)
    return (module.order * ann.order == ring.order
            and distinct_cyclic_submodules(module, caps)[-1].is_full())


def is_quasi_projective(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Lifting property against the module's own quotients."""
    return is_projective_relative(module, module, caps)


def is_projective_relative(x: FiniteModule, y: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Whether x is y-projective: the map Hom(x, y) -> Hom(x, y/K) must be
    onto for every submodule K of y.

    A direct sum is N-projective iff each summand is, and A is
    (N1 (+) N2)-projective iff it is N1- and N2-projective (Anderson & Fuller,
    Rings and Categories of Modules, 16.10 and 16.12), so a side recorded as
    a direct sum is split instead of enumerating its lattice.  A free x, as
    ``regular_module`` records, is projective (ibid., 17.2).  For a free y
    = R, a finite x is R-projective iff it is R^n-projective (16.12), iff a
    free cover of x splits, iff x is projective: ``_splits`` decides that.
    An x that is R/ann(x) is x-projective (``_is_regular_quotient``).
    """
    info, y_info = analysis(x), analysis(y)
    memo = info.projective
    hit = memo.get((y, caps))
    if hit is None:
        if info.free:
            hit = True
        elif info.summands:
            hit = all(is_projective_relative(a, y, caps) for a in info.summands)
        elif y_info.summands:
            hit = all(is_projective_relative(x, b, caps) for b in y_info.summands)
        elif y_info.free:
            hit = _splits(x, y)
        elif x == y and _is_regular_quotient(x, caps):
            hit = True
        else:
            hit = _lifts_to_quotients(x, y, caps)
        memo[(y, caps)] = hit
    return hit


def _splits(x, free):
    """Whether the cover free^m -> x, sending the i-th unit to g_i, splits,
    for R-generators g_i of x (``free`` is R): whether id_x is a sum of maps
    p_i h with h: x -> R and p_i(r) = r*g_i.  Hom(x, R^m) is Hom(x, R)^m,
    so one Hom solve serves any m; an additive generator already in the
    span of the earlier g_i is skipped."""
    from .homspace import Homomorphism, compose, hom_group, scaling

    identity = Homomorphism.identity(x)
    covers, span = [], Submodule.zero(x)
    for g in zip(*identity.matrix):
        if not span.contains(g):
            covers.append(scaling(free, x, g))
            span = span.sum(Submodule.span(x, [g]))
    rows = [compose(p, h).flatten() for p in covers for h in hom_group(x, free).generators]
    moduli = [e for e in x.inv_factors for _ in range(x.ngens)]
    return CanonicalSubgroup(moduli, rows).contains(identity.flatten())


def _lifts_to_quotients(x, y, caps):
    """Whether every map x -> y/K lifts to y, for each K <= y but 0 and y,
    through which every map lifts.  The K with one upper cover do not
    suffice (README, "Design notes")."""
    from .homspace import compose, hom_group

    gens = hom_group(x, y).generators
    for k_sub in all_submodules(y, caps)[1:-1]:
        quot, proj = quotient_module(y, k_sub)
        onto = hom_group(x, quot).subgroup
        rows = [compose(proj, h).flatten() for h in gens]
        if CanonicalSubgroup(onto.moduli, rows).order != onto.order:
            return False
    return True


@dataclass(frozen=True, repr=False)
class PredicateProfile:
    """Predicate summary for one module under ``caps``.  A finite module is
    always Goldie and noetherian, with the ascending chain condition on
    annihilators, so ``is_goldie`` is always True.  ``uniform_dim`` and
    ``annihilator_lattice_size`` (None past the caps) are read on demand."""

    module: FiniteModule
    caps: Caps
    is_quasi_projective: bool
    is_retractable: bool
    is_goldie: bool = True

    @functools.cached_property
    def uniform_dim(self) -> int:
        return uniform_dimension(self.module, self.caps)

    @functools.cached_property
    def annihilator_lattice_size(self) -> int | None:
        try:
            return len(annihilator_lattice(self.module, self.caps))
        except CapExceeded:
            return None

    def __repr__(self):
        names = "is_quasi_projective is_retractable is_goldie uniform_dim annihilator_lattice_size"
        return f"PredicateProfile({', '.join(f'{n}={getattr(self, n)!r}' for n in names.split())})"


def is_goldie(module: FiniteModule, caps=DEFAULT_CAPS) -> PredicateProfile:
    """The predicate profile.  Quasi-projectivity and retractability, which
    the harness reads, are decided here, and their CapExceeded propagates."""
    return PredicateProfile(module, caps, is_quasi_projective(module, caps),
                            is_retractable(module, caps))
