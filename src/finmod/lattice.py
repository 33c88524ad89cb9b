"""Submodules in canonical form, full lattice enumeration, and the module
predicates (uniform dimension, retractability, quasi-projectivity, Goldie
profile).  Quasi-projectivity is one split test over R/ann(M), retractability
one test over the maximal two-sided ideals of R; neither lists M's lattice.

A submodule is an action-closed subgroup stored as a canonical Hermite basis,
so equality and hashing are structural, and each module keeps one object per
distinct submodule.  Enumeration order is always (order, canonical basis),
which makes reports and counterexamples deterministic and minimal.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from math import gcd, lcm
from operator import mul

from .algebra import FiniteModule, ModuleElement, quotient_with_section, regular_module
from .config import DEFAULT_CAPS, CapExceeded
from .intlat import CanonicalSubgroup, _intern, generated_subgroup, solve_homogeneous_congruences


class Submodule:
    """Action-closed subgroup of a finite module, canonically represented.

    ``Submodule(module, subgroup)`` returns the one instance, over the
    interned subgroup, that ``module.analysis.submodules`` holds; a copy
    unpickles as it.  Equality compares structure after identity: equal
    modules carry different tables after ``clear_analyses()``.  The hash is the
    subgroup's, of integers only, so it is the same in every interpreter."""

    __slots__ = ("module", "subgroup", "_hash")

    def __new__(cls, module: FiniteModule, subgroup: CanonicalSubgroup):
        table = module.analysis.submodules
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
        info = module.analysis
        if info.zero is None:
            info.zero = cls(module, generated_subgroup(module.inv_factors, ()))
        return info.zero

    @classmethod
    def full(cls, module: FiniteModule) -> "Submodule":
        info = module.analysis
        if info.full is None:
            rows = [[int(t == j) for t in range(module.ngens)] for j in range(module.ngens)]
            info.full = cls(module, generated_subgroup(module.inv_factors, rows))
        return info.full

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
        if self is other:
            return True
        self._check(other)
        return not other.order % self.order and other.subgroup.contains_subgroup(self.subgroup)

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
        if self.module is not other.module and self.module != other.module:
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
    memo = module.analysis.cyclics
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
    member's covers go to ``module.analysis.covers[caps]``."""
    memo = module.analysis
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
    memo = M.analysis.embeddings
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
    info = module.analysis
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

    _, (inj_a, inj_b), _ = a.analysis.sums[b]
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

    memo = module.analysis.annihilators
    hit = memo.get(caps)
    if hit is None:
        end = hom_group(module, module)
        if end.order > caps.max_hom_elements:
            raise CapExceeded("endomorphism count", end.order, caps.max_hom_elements)
        lattice, covers = all_submodules(module, caps), module.analysis.covers[caps]
        e, gens = module.inv_factors, [f.matrix for f in end.generators]

        def restrictions(k):  # |End| / |Ann_End(K)|
            rows = [[sum(map(mul, row, x)) for x in k.basis for row in g] for g in gens]
            return CanonicalSubgroup(e * len(k.basis), rows).order

        size = {k: restrictions(k) for k in lattice}
        hit = memo[caps] = tuple(k for k in lattice if all(size[c] > size[k] for c in covers[k]))
    return list(hit)


def is_retractable(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Nonzero maps into every nonzero submodule: iff Ann_M(P) = 0 or PM != M
    for each maximal two-sided ideal P of R (README, "Design notes").  The P
    are the coatoms of the fully invariant submodules of R_R, kept in its
    analysis; each costs one congruence solve and one span, and no Hom."""
    info = module.analysis
    hit = info.retractable.get(caps)
    if hit is None:
        free = regular_module(module.ring)
        ideals = free.analysis.maximal_ideals
        if caps not in ideals:
            *proper, _ = fully_invariant_submodules(free, caps)
            ideals[caps] = tuple(p.basis for p in proper if not any(p.lt(q) for q in proper))
        e = module.inv_factors
        units = [[int(j == k) for k in range(len(e))] for j in range(len(e))]

        def fails(basis):  # PM = M and Ann_M(P) != 0; column j of each block is p*g_j
            blocks = [[module.act_coeffs(p, g) for g in units] for p in basis]
            return (generated_subgroup(e, [c for b in blocks for c in b]).order == module.order
                    and solve_homogeneous_congruences([r for b in blocks for r in zip(*b)],
                                                      e * len(blocks), e).order > 1)

        hit = info.retractable[caps] = not any(map(fails, ideals[caps]))
    return hit


def _annihilator(module):
    """ann_R(M) as a subgroup of R: the r with r*g = 0 for every generator g.
    One congruence solve per module."""
    info = module.analysis
    if info.annihilator is None:
        ring, s = module.ring, module.ngens
        rows = [[mat[k][j] for mat in module.actions] for j in range(s) for k in range(s)]
        info.annihilator = solve_homogeneous_congruences(rows, module.inv_factors * s, ring.add_orders)
    return info.annihilator


def _is_regular_quotient(module, ann, caps):
    """Whether M is the regular module of S = R/ann, for an ideal ann inside
    ann_R(M): whether M is cyclic with |M| |ann| = |R|.  For M = Rm, ann(m)
    holds ann and has order |R|/|M|, so the two are equal and r -> rm is
    onto M with kernel ann.  Elements are spanned until one spans M."""
    if module.order * ann.order != module.ring.order:
        return False
    if module.order > caps.max_module_order:
        raise CapExceeded("module order", module.order, caps.max_module_order)
    return any(cyclic_submodule(module, x).is_full() for x in module.elements())


def is_quasi_projective(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Whether every map M -> M/K lifts to an endomorphism of M.  For a finite
    M that holds iff M is projective over S = R/ann_R(M) (README, "Design
    notes"), which ``_is_projective_over`` decides with no submodule
    lattice; ``caps`` bound only the cyclic submodules its shortcut lists."""
    info = module.analysis
    hit = info.quasi_projective.get(caps)
    if hit is None:
        hit = info.quasi_projective[caps] = _is_projective_over(module, _annihilator(module), caps)
    return hit


def _is_projective_over(module, ann, caps):
    """Whether M is projective over S = R/ann, for an ideal ann inside
    ann_R(M).  A recorded sum is iff each summand is (Anderson & Fuller,
    Rings and Categories of Modules, 16.10), and the summands are S-modules
    too; M = S is (``_is_regular_quotient``); otherwise ``_splits`` decides."""
    summands = module.analysis.summands
    if summands:
        return all(_is_projective_over(a, ann, caps) for a in summands)
    return _is_regular_quotient(module, ann, caps) or _splits(module, ann)


def _splits(module, ann):
    """Whether the cover S^m -> M, sending the i-th unit to the i-th
    generator g_i of M, splits, for S = R/ann: whether id_M is a sum of maps
    p_i h with h: M -> S and p_i(s) = s*g_i.  p_i is r -> r*g_i after the
    section of R -> S, well defined since ann kills g_i.  Hom(M, S^m) is
    Hom(M, S)^m, so one Hom solve serves every i."""
    from .homspace import Homomorphism, compose, hom_group, scaling

    free = regular_module(module.ring)
    if ann.order == 1:  # S is R, and Hom(M, R) is shared with other callers
        quotient, section = free, Homomorphism.identity(free)
    else:
        quotient, _, rows = quotient_with_section(free, Submodule(free, ann))
        section = Homomorphism(quotient, free, rows)
    identity = Homomorphism.identity(module)
    covers = [compose(scaling(free, module, g), section) for g in zip(*identity.matrix)]
    rows = [compose(p, h).flatten() for p in covers for h in hom_group(module, quotient).generators]
    moduli = [e for e in module.inv_factors for _ in range(module.ngens)]
    return CanonicalSubgroup(moduli, rows).contains(identity.flatten())


class PredicateProfile(namedtuple("PredicateProfile",
                                  "module caps is_quasi_projective is_retractable is_goldie",
                                  defaults=(True,))):
    """Predicate summary for one module under ``caps``: the two hypotheses
    the harness reads are decided when it is built.  A finite module is
    always Goldie and noetherian, with the ascending chain condition on
    annihilators, so ``is_goldie`` is always True.  ``uniform_dim`` and
    ``annihilator_lattice_size`` (None past the caps) are read on demand,
    and stored in the instance dict."""

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
    """The predicate profile.  Quasi-projectivity (a split test over
    R/ann(M)) and retractability (a test over the maximal ideals of R), which
    the harness reads, are decided here; a CapExceeded from the cyclics of M
    or the two-sided ideals of R that they list propagates."""
    return PredicateProfile(module, caps, is_quasi_projective(module, caps),
                            is_retractable(module, caps))
