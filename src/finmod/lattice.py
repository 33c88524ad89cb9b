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
import itertools
from collections import namedtuple
from math import gcd, lcm
from operator import add, mul

from .algebra import (
    _SUMMANDS, FiniteModule, Homomorphism, _twin, compose, direct_sum, memoized,
    quotient_with_section, regular_module, scaling,
)
from .config import DEFAULT_CAPS, MAX_END_ELEMENTS, CapExceeded
from .homspace import hom_group
from .intlat import (CanonicalSubgroup, _contains, _intern, generated_subgroup,
                     solve_homogeneous_congruences)


class Submodule:
    """Action-closed subgroup of a finite module, canonically represented.

    ``Submodule(module, subgroup)`` returns the one instance, over the
    interned subgroup, that ``module.analysis.submodules`` holds; a copy
    unpickles as it.  Its ``module`` is the first module of the presentation
    that asked, perhaps over another ring, so a caller passes the ambient
    module it means.  Equality compares presentations after identity: equal
    modules carry different tables after ``clear_analyses()``.  The hash is
    the subgroup's, of integers only, so it is the same in every
    interpreter."""

    __slots__ = ("module", "subgroup", "order", "basis", "_hash")

    def __new__(cls, module: FiniteModule, subgroup: CanonicalSubgroup):
        table = module.analysis.submodules
        self = table.get(subgroup)
        if self is None:
            self = object.__new__(cls)
            self.module, self.subgroup = module, _intern(subgroup)
            self.order, self.basis, self._hash = subgroup.order, subgroup.basis, subgroup._hash
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

    @staticmethod
    @memoized
    def zero(module: FiniteModule) -> "Submodule":
        return Submodule(module, generated_subgroup(module.inv_factors, ()))

    @staticmethod
    @memoized
    def full(module: FiniteModule) -> "Submodule":
        rows = [[int(t == j) for t in range(module.ngens)] for j in range(module.ngens)]
        return Submodule(module, generated_subgroup(module.inv_factors, rows))

    def is_zero(self) -> bool:
        return self.order == 1

    def is_full(self) -> bool:
        return self.order == self.module.order

    def contains(self, vec) -> bool:
        return self.subgroup.contains(vec)

    def le(self, other: "Submodule") -> bool:
        if self is other:
            return True
        if self.module is not other.module and not self.module.acts_like(other.module):
            raise ValueError("submodules of different modules")
        return not other.order % self.order and _contains(other.subgroup, self.subgroup)

    def lt(self, other: "Submodule") -> bool:
        return self.le(other) and self != other

    def sum(self, other: "Submodule") -> "Submodule":
        self._check(other)
        return Submodule(self.module, self.subgroup.sum(other.subgroup))

    def intersect(self, other: "Submodule") -> "Submodule":
        self._check(other)
        return Submodule(self.module, self.subgroup.intersect(other.subgroup))

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
        if self.module is not other.module and not self.module.acts_like(other.module):
            raise ValueError("submodules of different modules")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.subgroup == other.subgroup and (
            self.module is other.module or self.module.acts_like(other.module))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Submodule({self.describe()}, order={self.order})"


def image(f: Homomorphism, sub: Submodule | None = None) -> Submodule:
    """f(sub), or the image of the whole source, as a submodule of the
    target.  The images of an additive basis already span a submodule.
    Answers are memoized in the target's analysis, keyed by (f's matrix,
    sub): maps between modules that act alike over different rings share
    them."""
    return _image(f.target, f.matrix, sub)


@memoized
def _image(target, matrix, sub):
    if sub is None:
        return Submodule.from_subgroup_rows(target, tuple(zip(*matrix)))
    e = target.inv_factors
    return Submodule.from_subgroup_rows(target, tuple(
        tuple([sum(map(mul, row, v)) % ek for row, ek in zip(matrix, e)]) for v in sub.basis))


def kernel(f: Homomorphism) -> Submodule:
    return Submodule(
        f.source,
        solve_homogeneous_congruences(f.matrix, f.target.inv_factors, f.source.inv_factors),
    )


def cyclic_submodule(module: FiniteModule, x) -> Submodule:
    """Smallest action-closed subgroup containing x."""
    return Submodule.span(module, [x])


def distinct_cyclic_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """All distinct cyclic submodules, in canonical order.  R(kx) = Rx for k
    prime to the additive order of x, so one x per <x> is spanned."""
    return list(_cyclics(module, caps))


@memoized
def _cyclics(module, caps):
    """{C: the first x spanning C} over the distinct cyclics, sorted."""
    if module.order > caps.max_module_order:
        raise CapExceeded("module order", module.order, caps.max_module_order)
    e, covered, spanned = module.inv_factors, set(), {}
    for x in itertools.product(*map(range, e)):
        if x not in covered:
            n = lcm(*(d // gcd(c, d) for c, d in zip(x, e)))
            units = (k for k in range(2, n) if gcd(k, n) == 1)
            covered.update(tuple(k * c % d for c, d in zip(x, e)) for k in units)
            spanned.setdefault(Submodule.span(module, (x,)), x)
    return dict(sorted(spanned.items(), key=lambda cx: cx[0].sort_key()))


@memoized
def _irreducibles(module, caps):
    """The triples (C, C-, x) of the join-irreducible cyclics, built when
    a walk or the socle first reads them: ``ell`` never does."""
    return _join_irreducible(_cyclics(module, caps))


def all_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """Every action-closed subgroup, in canonical order, reached from zero
    through upper covers formed with the join-irreducible cyclics."""
    return list(_lattice(module, caps)[0])


@memoized
def _lattice(module, caps):
    """(the members in canonical order, {member: tuple of its upper covers})."""
    covers = _join_closure(module, _irreducibles(module, caps), caps, "lattice members")
    return tuple(sorted(covers, key=Submodule.sort_key)), covers


def _join_irreducible(spans):
    """The triples (C, C-, x), over the items (C, x) of ``spans`` with C
    not the sum C- of the C's strictly below it; C- is then the largest
    proper member below C.  Each C is the least member holding its x, so
    C' <= C iff C holds the x of C'.  In canonical order those below C come
    first, and each is a sum of the irreducibles found already."""
    found = []
    for c, x in sorted(spans.items(), key=lambda cx: cx[0].sort_key()):
        rows = [r for j, _, y in found if c.contains(y) for r in j.basis]
        below = Submodule(c.module, CanonicalSubgroup(c.module.inv_factors, rows))
        if below.order != c.order:
            found.append((c, below, x))
    return found


def _join_closure(module, irreducibles, caps, what):
    """The members reached from zero through upper covers, each mapped to
    the tuple of its covers; raises CapExceeded past ``caps.max_lattice``
    members.  ``irreducibles`` are the triples (G, G-, x) of a modular
    lattice's join-irreducibles, with G <= Y iff x in Y for each member Y.
    Each cover of X is X + G for some G not below X, and [G meet X, G] is
    isomorphic to [X, X + G], so X + G covers X iff G- <= X.  A G whose x
    lies in X or in a cover of X already formed forms nothing new, so
    ``seen`` holds the residues modulo X of those members' elements: each
    cover is built once, and its sum bypasses the sum cache."""
    zero = Submodule.zero(module)
    members, covers, frontier = {zero}, {}, [zero]
    while frontier:
        cur = frontier.pop()
        hnf, formed, seen = cur.subgroup.full_hnf, [], {(0,) * len(module.inv_factors)}
        for g, floor, x in irreducibles:
            if _residue(hnf, x) in seen or not floor.le(cur):
                continue
            nxt = Submodule(module, CanonicalSubgroup(module.inv_factors, g.basis, hnf))
            if nxt not in members:
                if len(members) >= caps.max_lattice:
                    raise CapExceeded(what, len(members), caps.max_lattice)
                members.add(nxt)
                frontier.append(nxt)
            formed.append(nxt)
            seen |= _residues(hnf, g.basis)
        covers[cur] = tuple(formed)
    return covers


def _residue(hnf, vec):
    """The least representative of vec modulo a full HNF."""
    v = list(vec)
    for i, h in enumerate(hnf):
        if q := v[i] // h[i]:
            for k in range(i, len(v)):
                v[k] -= q * h[k]
    return tuple(v)


def _residues(hnf, rows):
    """The residues modulo a full HNF of the subgroup it generates with the rows."""
    steps, span = [_residue(hnf, r) for r in rows], {(0,) * len(hnf)}
    frontier = list(span)
    for e in frontier:
        new = {_residue(hnf, map(add, e, s)) for s in steps} - span
        span |= new
        frontier += new
    return span


class SubmoduleEmbedding(namedtuple("SubmoduleEmbedding", "module inclusion subgroup")):
    """A submodule presented as a standalone module with its inclusion."""
    __slots__ = ()


def submodule_as_module(module: FiniteModule, sub: Submodule) -> SubmoduleEmbedding:
    """Present an action-closed submodule of ``module`` as a module in its
    own right, over ``module``'s ring.

    The new module's generators are the invariant-factor generators of the
    subgroup; the inclusion matrix has those generators as columns.
    """
    return _embedding(module, sub, module.ring)


@memoized
def _embedding(M, sub, ring):
    """The embedding over ``ring``, M's ring: the key carries it, as modules
    over other rings share M's analysis."""
    group, gens = sub.subgroup, sub.subgroup.smith_gens
    # column k of each action matrix holds the coordinates of mat @ gens[k];
    # coordinates are reduced, and an action-closed subgroup is a module, so
    # the module is built without validation
    actions = tuple(
        tuple(zip(*[group.coords([sum(map(mul, row, g)) for row in mat]) for g in gens]))
        for mat in M.actions
    )
    sub_mod = FiniteModule(ring, group.invariants, actions, name=f"{M.name}|{sub.describe()}")
    incl = tuple(tuple(g[j] for g in gens) for j in range(M.ngens))
    sub_mod = _twin(sub_mod, M, incl)
    return SubmoduleEmbedding(sub_mod, Homomorphism(sub_mod, M, incl), group)


def fully_invariant_submodules(module: FiniteModule, caps=DEFAULT_CAPS):
    """Submodules stable under every endomorphism, in canonical order;
    ``caps.max_lattice`` bounds their number.  A recorded direct sum takes
    them from its summands (``_fully_invariant_sums``), any other module
    from the End-closures of its cyclics (``_end_closures``)."""
    return list(_fully_invariant(module, caps))


@memoized
def _fully_invariant(module, caps):
    built = _SUMMANDS.get(module)
    members = (_fully_invariant_sums(module, *built[:2], caps) if built
               else _end_closures(module, caps))
    return tuple(sorted(members, key=Submodule.sort_key))


def _end_closures(module, caps):
    """A fully invariant submodule is the sum of the End-closures of the
    join-irreducible cyclics inside it, and the End-closure of xR is spanned
    by f(v) over the End generators f and a basis v of xR; it lies in a
    fully invariant Y iff x does.  Sums and meets of fully invariant
    submodules are fully invariant, a sublattice of the modular submodule
    lattice, so its members are walked by upper covers from the closures,
    as ``_lattice``'s are from the cyclics."""
    gens = hom_group(module, module).generators
    closures = {Submodule.from_subgroup_rows(module, {f.apply_vec(v) for f in gens for v in c.basis}): x
                for c, _, x in _irreducibles(module, caps)}
    return _join_closure(module, _join_irreducible(closures), caps, "fully invariant members")


def _fully_invariant_sums(module, a, b, caps):
    """FI(A (+) B): the X (+) Y, through the recorded injections, for X in
    FI(A) and Y in FI(B) with Hom(A, B) X <= Y and Hom(B, A) Y <= X.  The
    idempotents e_A and e_B are endomorphisms, so a fully invariant U is
    e_A U (+) e_B U, and an endomorphism keeps X (+) Y iff each block of its
    matrix does; the maps that keep it form a subgroup, so the generators of
    each Hom group decide."""
    _, (inj_a, inj_b), _ = direct_sum(a, b)
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


@memoized
def _socle_data(module: FiniteModule, caps):
    """The simple submodules are the join-irreducible cyclics with C- = 0."""
    total, count = Submodule.zero(module), 0
    for a, floor, x in _irreducibles(module, caps):
        if floor.is_zero() and not total.contains(x):
            total, count = total.sum(a), count + 1
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
    ``MAX_END_ELEMENTS`` raises CapExceeded before any lattice is listed:
    that cap only decides when the family is reported."""
    return list(_annihilators(module, caps))


@memoized
def _annihilators(module, caps):
    end = hom_group(module, module)
    if end.order > MAX_END_ELEMENTS:
        raise CapExceeded("endomorphism count", end.order, MAX_END_ELEMENTS)
    lattice, covers = _lattice(module, caps)
    e, gens = module.inv_factors, [f.matrix for f in end.generators]

    def restrictions(k):  # |End| / |Ann_End(K)|
        rows = [[sum(map(mul, row, x)) for x in k.basis for row in g] for g in gens]
        return CanonicalSubgroup(e * len(k.basis), rows).order

    size = {k: restrictions(k) for k in lattice}
    return tuple(k for k in lattice if all(size[c] > size[k] for c in covers[k]))


@memoized
def is_retractable(module: FiniteModule, caps=DEFAULT_CAPS) -> bool:
    """Nonzero maps into every nonzero submodule: iff Ann_M(P) = 0 or PM != M
    for each maximal two-sided ideal P of R (README, "Design notes").  Each P
    costs one congruence solve and one span, and no Hom."""
    e = module.inv_factors
    units = [[int(j == k) for k in range(len(e))] for j in range(len(e))]

    def fails(basis):  # PM = M and Ann_M(P) != 0; column j of each block is p*g_j
        blocks = [[module.act_coeffs(p, g) for g in units] for p in basis]
        return (generated_subgroup(e, [c for b in blocks for c in b]).order == module.order
                and solve_homogeneous_congruences([r for b in blocks for r in zip(*b)],
                                                  e * len(blocks), e).order > 1)

    return not any(map(fails, _maximal_ideals(regular_module(module.ring), caps)))


@memoized
def _maximal_ideals(free, caps):
    """Bases of the maximal two-sided ideals of R, the coatoms of the fully
    invariant submodules of ``free`` = R_R."""
    *proper, _ = fully_invariant_submodules(free, caps)
    return tuple(p.basis for p in proper if not any(p.lt(q) for q in proper))


def _annihilator(module):
    """ann_R(M) as a subgroup of R: the r with r*g = 0 for every generator g.
    One congruence solve per module."""
    ring, s = module.ring, module.ngens
    rows = [[mat[k][j] for mat in module.actions] for j in range(s) for k in range(s)]
    return solve_homogeneous_congruences(rows, module.inv_factors * s, ring.add_orders)


@memoized
def is_quasi_projective(module: FiniteModule) -> bool:
    """Whether every map M -> M/K lifts to an endomorphism of M.  For a finite
    M that holds iff M is projective over S = R/ann_R(M) (README, "Design
    notes"), which ``_is_projective_over`` decides with no submodule
    lattice, so no cap is met."""
    return _is_projective_over(module, _annihilator(module))


def _is_projective_over(module, ann):
    """Whether M is projective over S = R/ann, for an ideal ann inside
    ann_R(M).  A recorded sum is iff each summand is (Anderson & Fuller,
    Rings and Categories of Modules, 16.10), and the summands are S-modules
    too; otherwise ``_splits`` decides."""
    built = _SUMMANDS.get(module)
    if built:
        return all(_is_projective_over(a, ann) for a in built[:2])
    return _splits(module, ann)


def _splits(module, ann):
    """Whether the cover S^m -> M, sending the i-th unit to the i-th
    generator g_i of M, splits, for S = R/ann: whether id_M is a sum of maps
    p_i h with h: M -> S and p_i(s) = s*g_i.  p_i is r -> r*g_i after the
    section of R -> S, well defined since ann kills g_i.  Hom(M, S^m) is
    Hom(M, S)^m, so one Hom solve serves every i."""
    free = regular_module(module.ring)
    if ann.order == 1:  # S is R, and Hom(M, R) is shared with other callers
        quotient, section = free, Homomorphism.identity(free)
    else:
        quotient, _, rows = quotient_with_section(free, Submodule(free, ann), free.ring)
        section = Homomorphism(quotient, free, rows)
    identity = Homomorphism.identity(module)
    covers = [compose(scaling(free, module, g), section) for g in zip(*identity.matrix)]
    rows = [compose(p, h).flatten() for p in covers for h in hom_group(module, quotient).generators]
    moduli = [e for e in module.inv_factors for _ in range(module.ngens)]
    return CanonicalSubgroup(moduli, rows).contains(identity.flatten())


class PredicateProfile(namedtuple("PredicateProfile",
                                  "module caps is_quasi_projective is_retractable is_goldie",
                                  defaults=(True,))):
    """Predicate summary for one module under ``caps``: quasi-projectivity
    and retractability are decided when it is built.  A finite module is
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
    """The predicate profile that ``finmod predicates`` and the demos print;
    a CapExceeded from the two-sided ideals of R that retractability lists
    propagates."""
    return PredicateProfile(module, caps, is_quasi_projective(module),
                            is_retractable(module, caps))
