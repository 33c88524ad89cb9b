"""Finite rings given by structure constants, and finite left modules over
them given by action matrices.

A ring is described by the invariant factors of its additive group together
with one coefficient vector per basis pair; a module by its additive invariant
factors and one action matrix per ring basis element.  Constructors always
renormalize additive groups into invariant-factor (divisibility chain) form,
so equal objects are structurally identical.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from math import prod
from operator import mul

from .config import CapExceeded
from .intlat import finite_presentation


class ValidationError(Exception):
    """Base class for structural validation failures."""


class NotAssociative(ValidationError):
    def __init__(self, triple):
        super().__init__(f"associativity fails on basis triple {triple}")
        self.triple = triple


class NoUnit(ValidationError):
    def __init__(self, basis_index):
        super().__init__(f"unit fails on basis element {basis_index}")
        self.basis_index = basis_index


class OrderIncompatible(ValidationError):
    def __init__(self, i, j, k):
        super().__init__(f"structure constant ({i},{j},{k}) violates additive orders")
        self.witness = (i, j, k)


class UnitNotIdentity(ValidationError):
    pass


class ActionIncompatible(ValidationError):
    def __init__(self, i, j, generator):
        super().__init__(
            f"action of basis pair ({i},{j}) disagrees with ring product on "
            f"generator {generator}"
        )
        self.witness = (i, j, generator)


class OrderViolation(ValidationError):
    def __init__(self, i, k, j):
        super().__init__(
            f"action matrix {i} sends generator {j} outside its order class "
            f"(coordinate {k})"
        )
        self.witness = (i, k, j)


def _is_chain(orders) -> bool:
    return all(b % a == 0 for a, b in zip(orders, orders[1:]))


class _BlindToLast:
    """Equality and hash of a namedtuple record over every field but its
    last.  ``tuple.__ne__`` would compare the last field too, so ``__ne__``
    is overridden with ``__eq__``."""

    __slots__ = ()

    def __eq__(self, other):
        # Hot paths compare modules all the time, mostly a module with itself.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-1])


class _NameBlind(_BlindToLast):
    """A ring or module record, equal to another whatever their ``name``.
    The hash is stored in the instance dict when first taken, so that dict
    lookups keyed by modules do not rehash every action matrix."""

    __slots__ = ()

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self._hash = hash(self[:-1])
        return h

    def __getstate__(self):
        # A hash (of string labels, so of PYTHONHASHSEED) and an analysis are per process.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("analysis", None)
        return state


class FiniteRing(_NameBlind, namedtuple("FiniteRing", "add_orders struct unit labels name",
                                        defaults=(None, "ring"))):
    """Finite associative unital ring.

    ``struct[i][j]`` holds the coefficient vector of the product of basis
    elements i and j; ``add_orders`` is the divisibility chain of the additive
    group; ``labels`` names the basis elements (or is None).  A rank-0 ring
    is the one-element (zero) ring, exempt from the unit requirement by
    convention.
    """

    @property
    def rank(self) -> int:
        return len(self.add_orders)

    @property
    def order(self) -> int:
        return prod(self.add_orders)

    def reduce(self, coeffs) -> tuple[int, ...]:
        return tuple(c % m for c, m in zip(coeffs, self.add_orders))

    def mul_coeffs(self, x, y) -> tuple[int, ...]:
        r = self.rank
        out = [0] * r
        for i in range(r):
            xi = x[i]
            if xi == 0:
                continue
            for j in range(r):
                yj = y[j]
                if yj == 0:
                    continue
                c = self.struct[i][j]
                for k in range(r):
                    out[k] += xi * yj * c[k]
        return self.reduce(out)

    def add_coeffs(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.add_orders))

    def element(self, coeffs) -> "RingElement":
        return RingElement(self, self.reduce(coeffs))

    def one(self) -> "RingElement":
        return RingElement(self, self.unit)

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.rank)

    def elements(self):
        for coeffs in itertools.product(*[range(m) for m in self.add_orders]):
            yield RingElement(self, coeffs)

    def __repr__(self):
        return f"FiniteRing({self.name}, orders={list(self.add_orders)})"


class RingElement(namedtuple("RingElement", "ring coeffs")):
    __slots__ = ()

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.add_coeffs(self.coeffs, other.coeffs))

    def __neg__(self):
        return RingElement(self.ring, self.ring.reduce([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul_coeffs(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements of different rings")

    def __repr__(self):
        return f"RingElement{self.coeffs}"


def validate_ring(ring: FiniteRing) -> FiniteRing:
    """Return ``ring`` unchanged iff all structural invariants hold.

    Raises OrderIncompatible, NotAssociative or NoUnit with a witness.
    """
    r = ring.rank
    orders = ring.add_orders
    if r == 0:
        return ring  # zero ring convention
    if any(m < 2 for m in orders) or not _is_chain(orders):
        raise ValidationError(f"additive orders {orders} not a divisibility chain")
    if len(ring.unit) != r or len(ring.struct) != r:
        raise ValidationError("coefficient vector lengths do not match rank")
    for i in range(r):
        if len(ring.struct[i]) != r:
            raise ValidationError("structure constant table is ragged")
        for j in range(r):
            c = ring.struct[i][j]
            if len(c) != r:
                raise ValidationError("structure constant table is ragged")
            for k in range(r):
                if not 0 <= c[k] < orders[k]:
                    raise ValidationError(
                        f"structure constant ({i},{j},{k}) not reduced"
                    )
                if (orders[i] * c[k]) % orders[k] or (orders[j] * c[k]) % orders[k]:
                    raise OrderIncompatible(i, j, k)
    basis = [
        tuple(1 if t == i else 0 for t in range(r)) for i in range(r)
    ]
    for i in range(r):
        for j in range(r):
            bij = ring.struct[i][j]
            for k in range(r):
                left = ring.mul_coeffs(bij, basis[k])
                right = ring.mul_coeffs(basis[i], ring.struct[j][k])
                if left != right:
                    raise NotAssociative((i, j, k))
    for i in range(r):
        if ring.mul_coeffs(ring.unit, basis[i]) != basis[i]:
            raise NoUnit(i)
        if ring.mul_coeffs(basis[i], ring.unit) != basis[i]:
            raise NoUnit(i)
    return ring


def _normalized_ring(raw_orders, raw_struct, raw_unit, name) -> FiniteRing:
    """Build a ring from a presentation whose additive orders need not form a
    divisibility chain, renormalizing the basis to invariant-factor form."""
    r = len(raw_orders)
    relations = [[raw_orders[i] if j == i else 0 for j in range(r)] for i in range(r)]
    nf = finite_presentation(relations, r)
    rank = len(nf.invariants)
    section = nf.section  # r x rank, integer representatives of the new basis
    proj = nf.projection  # rank x r

    def project(vec):
        return tuple(
            sum(p[j] * vec[j] for j in range(r)) % d
            for p, d in zip(proj, nf.invariants)
        )

    new_struct = []
    for a in range(rank):
        row = []
        for b in range(rank):
            acc = [0] * r
            for i in range(r):
                sa = section[i][a]
                if sa == 0:
                    continue
                for j in range(r):
                    sb = section[j][b]
                    if sb == 0:
                        continue
                    c = raw_struct[i][j]
                    for k in range(r):
                        acc[k] += sa * sb * c[k]
            row.append(project(acc))
        new_struct.append(tuple(row))
    ring = FiniteRing(
        add_orders=nf.invariants,
        struct=tuple(new_struct),
        unit=project(raw_unit),
        labels=None,
        name=name,
    )
    return validate_ring(ring)


# Largest order the builtin ring constructors build.
MAX_RING_ORDER = 256

# The builtin constructors hand out one validated ring per distinct argument
# tuple, from a cache of this many entries.
RING_CACHE_SIZE = 128


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def zn_ring(n: int) -> FiniteRing:
    """Z/n as a ring; basis is the unit itself."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_RING_ORDER:
        raise CapExceeded("ring order", n, MAX_RING_ORDER)
    return validate_ring(
        FiniteRing(
            add_orders=(n,),
            struct=(((1,),),),
            unit=(1,),
            labels=("1",),
            name=f"Z{n}",
        )
    )


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def matrix_ring(k: int, n: int) -> FiniteRing:
    """Full k-by-k matrix ring over Z/n; basis the matrix units e_{ab}."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    if n ** (k * k) > MAX_RING_ORDER:
        raise CapExceeded("ring order", n ** (k * k), MAX_RING_ORDER)
    units = [(a, b) for a in range(k) for b in range(k)]
    return _matrix_units_ring(units, n, f"M{k}(Z{n})")


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def triangular_ring(k: int, n: int) -> FiniteRing:
    """Upper triangular k-by-k matrices over Z/n."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    count = k * (k + 1) // 2
    if n ** count > MAX_RING_ORDER:
        raise CapExceeded("ring order", n ** count, MAX_RING_ORDER)
    units = [(a, b) for a in range(k) for b in range(a, k)]
    return _matrix_units_ring(units, n, f"T{k}(Z{n})")


def _matrix_units_ring(units, n, name) -> FiniteRing:
    r = len(units)
    index = {u: t for t, u in enumerate(units)}
    struct = []
    for a, b in units:
        row = []
        for c, d in units:
            vec = [0] * r
            if b == c and (a, d) in index:
                vec[index[(a, d)]] = 1
            row.append(tuple(vec))
        struct.append(tuple(row))
    unit = [0] * r
    for a, b in units:
        if a == b:
            unit[index[(a, b)]] = 1
    labels = tuple(f"e{a + 1}{b + 1}" for a, b in units)
    return validate_ring(
        FiniteRing(
            add_orders=(n,) * r,
            struct=tuple(struct),
            unit=tuple(unit),
            labels=labels,
            name=name,
        )
    )


def product_ring(rings) -> FiniteRing:
    """Direct product of rings; renormalized to invariant-factor form."""
    total = prod(r.order for r in rings)
    if total > MAX_RING_ORDER:
        raise CapExceeded("ring order", total, MAX_RING_ORDER)
    raw_orders = [m for r in rings for m in r.add_orders]
    offsets = []
    off = 0
    for r in rings:
        offsets.append(off)
        off += r.rank
    rank = off
    raw_struct = [[(0,) * rank] * rank for _ in range(rank)]
    for t, r in enumerate(rings):
        o = offsets[t]
        for i in range(r.rank):
            for j in range(r.rank):
                vec = [0] * rank
                for k in range(r.rank):
                    vec[o + k] = r.struct[i][j][k]
                raw_struct[o + i][o + j] = tuple(vec)
    raw_unit = [0] * rank
    for t, r in enumerate(rings):
        o = offsets[t]
        for k in range(r.rank):
            raw_unit[o + k] = r.unit[k]
    name = " x ".join(r.name for r in rings)
    return _normalized_ring(raw_orders, raw_struct, raw_unit, name)


def opposite_ring(ring: FiniteRing) -> FiniteRing:
    """Same additive group and unit, multiplication reversed."""
    r = ring.rank
    struct = tuple(
        tuple(ring.struct[j][i] for j in range(r)) for i in range(r)
    )
    if ring.name.endswith("^op"):
        name = ring.name[:-3]
    else:
        name = ring.name + "^op"
    return FiniteRing(
        add_orders=ring.add_orders,
        struct=struct,
        unit=ring.unit,
        labels=ring.labels,
        name=name,
    )


class FiniteModule(_NameBlind, namedtuple("FiniteModule", "ring inv_factors actions labels name",
                                          defaults=(None, "module"))):
    """Finite left module: additive invariant factors plus one action matrix
    per ring basis element (columns indexed by module generators)."""

    @property
    def ngens(self) -> int:
        return len(self.inv_factors)

    @property
    def order(self) -> int:
        return prod(self.inv_factors)

    def reduce(self, coeffs) -> tuple[int, ...]:
        return tuple(c % d for c, d in zip(coeffs, self.inv_factors))

    def element(self, coeffs) -> "ModuleElement":
        return ModuleElement(self, self.reduce(coeffs))

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, (0,) * self.ngens)

    def generator(self, j: int) -> "ModuleElement":
        return self.element(tuple(1 if t == j else 0 for t in range(self.ngens)))

    def elements(self):
        for coeffs in itertools.product(*[range(d) for d in self.inv_factors]):
            yield ModuleElement(self, coeffs)

    def act_coeffs(self, ring_coeffs, vec) -> tuple[int, ...]:
        s = self.ngens
        out = [0] * s
        for i, ri in enumerate(ring_coeffs):
            if ri == 0:
                continue
            mat = self.actions[i]
            for k in range(s):
                row = mat[k]
                acc = 0
                for j in range(s):
                    vj = vec[j]
                    if vj:
                        acc += row[j] * vj
                out[k] += ri * acc
        return self.reduce(out)

    def generator_label(self, j: int) -> str:
        return self.labels[j] if self.labels else f"g{j}"

    @functools.cached_property
    def analysis(self) -> "ModuleAnalysis":
        """The one analysis of all modules equal to this one; later reads hash nothing."""
        return _ANALYSES.get(self) or _ANALYSES.setdefault(self, ModuleAnalysis())

    def __repr__(self):
        return f"FiniteModule({self.name} over {self.ring.name}, inv={list(self.inv_factors)})"


class ModuleAnalysis:
    """What has been computed about one module, shared by every module
    structurally equal to it (``name`` is not compared, so a cached quotient,
    embedding or Hom group carries the name of the first equal module seen).

    Answers that depend on size caps are keyed by the ``Caps`` they were
    computed under; a computation that raises ``CapExceeded`` stores nothing.
    ``annihilator``, read by quasi-projectivity, is not.
    Lists are stored as tuples and handed out as fresh lists.  Memos keyed
    by submodules hit on identity, since ``submodules`` makes each distinct
    submodule one object.
    """

    def __init__(self):
        # Interned subgroup -> the one Submodule over it; every Submodule is
        # action-closed, so this holds at most the module's lattice.
        self.submodules = {}
        self.lattice = {}  # Caps -> tuple of Submodules
        self.covers = {}  # Caps -> {Submodule: tuple of its upper covers}
        self.cyclics = {}  # Caps -> tuple of Submodules
        self.fully_invariant = {}  # Caps -> tuple of Submodules
        self.annihilators = {}  # Caps -> tuple of Submodules
        self.quasi_projective = {}  # Caps -> bool
        self.retractable = {}  # Caps -> bool
        self.maximal_ideals = {}  # Caps -> bases of R's maximal ideals, for R_R only
        self.ell = {}  # Caps -> Submodule
        self.prime_radical = {}  # Caps -> RadicalProfile
        self.end_ring = {}  # Caps -> EndRing
        self.homs = {}  # target module -> HomGroup
        self.quotients = {}  # Submodule -> (M/S, proj, section)
        self.embeddings = {}  # Submodule -> SubmoduleEmbedding
        self.products = {}  # (left, right) -> Submodule
        self.maps_into = {}  # Submodule K -> maps M -> M spanning Hom(M, K)
        self.powers = {}  # base -> (left-nested powers, terminal), as in PowerTrace
        self.cyclic_annihilators = {}  # Caps -> ((C, ann_left(C)), ...)
        self.right_annihilators = {}  # (Submodule, Caps) -> ann_right
        self.nil = {}  # (Submodule, Caps) -> NilVerdict
        self.locally_nilpotent = {}  # (Submodule, Caps, force_definitional) -> bool
        self.semiprime = {}  # (Submodule, Caps) -> (bool, witness)
        self.zero = self.full = None  # Submodule.zero and Submodule.full
        self.end_blocks = None  # End(M)'s Smith generators as s x s matrices
        self.summands = None  # (a, b) when built as a direct sum a (+) b
        self.annihilator = None  # ann_R(M), a CanonicalSubgroup of R
        self.free = False  # built by regular_module, so projective
        self.sums = {}  # module b -> direct_sum(M, b)


# Module -> ModuleAnalysis and ring -> its regular module, for the process's life,
# as instances share modules and answers; a module that carries its analysis
# keeps it past ``clear_analyses()``.
_ANALYSES = {}
_REGULAR = {}


def clear_analyses():
    """Forget every analysis and every regular module."""
    _ANALYSES.clear()
    _REGULAR.clear()


class ModuleElement(namedtuple("ModuleElement", "module coeffs")):
    __slots__ = ()

    def __add__(self, other):
        self._check(other)
        return ModuleElement(
            self.module,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.coeffs, other.coeffs, self.module.inv_factors)
            ),
        )

    def __neg__(self):
        return ModuleElement(self.module, self.module.reduce([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other):
        if self.module is not other.module and self.module != other.module:
            raise ValueError("elements of different modules")

    def __repr__(self):
        return f"ModuleElement{self.coeffs}"


def act(r: RingElement, x: ModuleElement) -> ModuleElement:
    """Left action r.x; distributes over addition in both arguments."""
    if x.module.ring is not r.ring and x.module.ring != r.ring:
        raise ValueError("ring element does not act on this module")
    return ModuleElement(x.module, x.module.act_coeffs(r.coeffs, x.coeffs))


def _mat_mod_rows(mat, inv_factors):
    return tuple(
        tuple(v % d for v in row) for row, d in zip(mat, inv_factors)
    )


def _mat_mul(a, b):
    inner = len(b)
    width = len(b[0]) if inner else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(width)]
        for row in a
    ]


def validate_module(ring: FiniteRing, module: FiniteModule) -> FiniteModule:
    """Return ``module`` unchanged iff all module invariants hold over ``ring``.

    Raises OrderViolation, UnitNotIdentity or ActionIncompatible.
    """
    if module.ring != ring:
        raise ValidationError("module carries a different ring")
    d = module.inv_factors
    s = module.ngens
    if any(x < 2 for x in d) or not _is_chain(d):
        raise ValidationError(f"invariant factors {d} not a divisibility chain")
    if len(module.actions) != ring.rank:
        raise ValidationError("one action matrix per ring basis element required")
    for i, mat in enumerate(module.actions):
        if len(mat) != s or any(len(row) != s for row in mat):
            raise ValidationError(f"action matrix {i} has wrong shape")
        for k in range(s):
            for j in range(s):
                v = mat[k][j]
                if not 0 <= v < d[k]:
                    raise ValidationError(f"action matrix {i} entry ({k},{j}) not reduced")
                if (d[j] * v) % d[k]:
                    raise OrderViolation(i, k, j)
    unit_mat = [[0] * s for _ in range(s)]
    for i, u in enumerate(ring.unit):
        if u == 0:
            continue
        mat = module.actions[i]
        for k in range(s):
            for j in range(s):
                unit_mat[k][j] += u * mat[k][j]
    ident = [[1 if k == j else 0 for j in range(s)] for k in range(s)]
    if _mat_mod_rows(unit_mat, d) != _mat_mod_rows(ident, d):
        raise UnitNotIdentity("unit does not act as the identity")
    for i in range(ring.rank):
        for j in range(ring.rank):
            composite = _mat_mul(module.actions[i], module.actions[j])
            expanded = [[0] * s for _ in range(s)]
            for k, c in enumerate(ring.struct[i][j]):
                if c == 0:
                    continue
                mat = module.actions[k]
                for a in range(s):
                    for b in range(s):
                        expanded[a][b] += c * mat[a][b]
            if _mat_mod_rows(composite, d) != _mat_mod_rows(expanded, d):
                for col in range(s):
                    lhs = tuple(composite[k][col] % d[k] for k in range(s))
                    rhs = tuple(expanded[k][col] % d[k] for k in range(s))
                    if lhs != rhs:
                        raise ActionIncompatible(i, j, col)
    return module


def module_from_actions(ring, inv_factors, actions, labels=None, name="module"):
    """Reduce entries and validate; convenience constructor."""
    inv_factors = tuple(inv_factors)
    mod = FiniteModule(
        ring=ring,
        inv_factors=inv_factors,
        actions=tuple(_mat_mod_rows(m, inv_factors) for m in actions),
        labels=labels,
        name=name,
    )
    return validate_module(ring, mod)


def regular_module(ring: FiniteRing) -> FiniteModule:
    """The ring as a left module over itself; actions are the left
    multiplication matrices, column j of matrix i holding b_i * b_j.

    Built without validation: for a validated ring, associativity, the unit
    and the additive orders are exactly the module axioms of this action.
    Its analysis records it as free.  Equal rings get one module, the first
    built, until ``clear_analyses()``."""
    module = _REGULAR.get(ring)
    if module is None:
        r = ring.rank
        actions = tuple(
            tuple(tuple(ring.struct[i][j][k] for j in range(r)) for k in range(r))
            for i in range(r)
        )
        module = _REGULAR[ring] = FiniteModule(
            ring, ring.add_orders, actions, ring.labels, f"{ring.name} regular")
        module.analysis.free = True
    return module


def cyclic_module(ring: FiniteRing, n: int, name=None) -> FiniteModule:
    """Z/n as a module over Z/m-like commutative rank-1 rings (n | exponent)."""
    if ring.rank != 1:
        raise ValueError("cyclic_module needs a rank-1 ring")
    m = ring.add_orders[0]
    if m % n:
        raise ValueError("n must divide the ring exponent")
    return module_from_actions(
        ring, (n,), [[[1]]], labels=("1",), name=name or f"Z{n}"
    )


def _module_from_presentation(ring, relation_rows, ambient_actions, s, name):
    """Quotient of an s-generator presentation by a relation lattice, with the
    induced action; returns (module, projection matrix, section matrix)."""
    nf = finite_presentation(relation_rows, s)
    proj, inv = nf.projection, nf.invariants  # proj is t x s, reduced
    columns = list(zip(*nf.section))  # the section's t columns, each of length s
    new_actions = []
    for mat in ambient_actions:
        # column j of the induced action is proj @ mat @ (section column j)
        images = [[sum(map(mul, row, col)) for row in mat] for col in columns]
        new_actions.append(tuple(
            tuple(sum(map(mul, p, img)) % d for img in images) for p, d in zip(proj, inv)
        ))
    # The induced action on a quotient is a module action with reduced
    # entries, so the module is built without validation.
    module = FiniteModule(ring, nf.invariants, tuple(new_actions), name=name)
    return module, proj, nf.section


def quotient_with_section(module: FiniteModule, sub):
    """Quotient data (M/S, projection matrix, section matrix); the projection
    composed with the section is the identity on the quotient."""
    memo = module.analysis.quotients
    hit = memo.get(sub)
    if hit is None:
        relation_rows = [list(r) for r in sub.subgroup.full_hnf]
        hit = memo[sub] = _module_from_presentation(
            module.ring,
            relation_rows,
            module.actions,
            module.ngens,
            name=f"{module.name}/{sub.describe()}",
        )
    return hit


def quotient_module(module: FiniteModule, sub):
    """Quotient M/S by an action-closed submodule, with the canonical
    projection.  |M| = |S| * |M/S|."""
    from .homspace import Homomorphism  # deferred; homspace imports this module

    quot, proj_mat, _ = quotient_with_section(module, sub)
    projection = Homomorphism(source=module, target=quot, matrix=proj_mat)
    return quot, projection


def direct_sum(a: FiniteModule, b: FiniteModule):
    """Direct sum with block actions, renormalized to invariant-factor form.

    Returns (module, (inj_a, inj_b), (proj_a, proj_b)); the injections and
    projections satisfy proj_i . inj_j = delta_ij.  When both summands are
    nonzero, the analysis of the sum records them, and projectivity over
    R/ann, the fully invariant submodules and Hom out of a free sum are read
    off them.  Answers are memoized in the analysis of ``a``, keyed by ``b``.
    """
    from .homspace import Homomorphism

    memo = a.analysis.sums
    hit = memo.get(b)
    if hit is not None:
        return hit
    if a.ring is not b.ring and a.ring != b.ring:
        raise ValidationError("direct sum requires a common ring")
    sa, sb = a.ngens, b.ngens
    s = sa + sb
    raw_orders = list(a.inv_factors) + list(b.inv_factors)
    relation_rows = [
        [raw_orders[i] if j == i else 0 for j in range(s)] for i in range(s)
    ]
    block_actions = []
    for i in range(a.ring.rank):
        mat = [[0] * s for _ in range(s)]
        for k in range(sa):
            for j in range(sa):
                mat[k][j] = a.actions[i][k][j]
        for k in range(sb):
            for j in range(sb):
                mat[sa + k][sa + j] = b.actions[i][k][j]
        block_actions.append(mat)
    total, proj_mat, sect_mat = _module_from_presentation(
        a.ring, relation_rows, block_actions, s, name=f"{a.name} (+) {b.name}"
    )
    t = total.ngens
    inj_a = Homomorphism(
        source=a,
        target=total,
        matrix=tuple(tuple(proj_mat[k][j] for j in range(sa)) for k in range(t)),
    )
    inj_b = Homomorphism(
        source=b,
        target=total,
        matrix=tuple(tuple(proj_mat[k][sa + j] for j in range(sb)) for k in range(t)),
    )
    proj_a = Homomorphism(
        source=total,
        target=a,
        matrix=tuple(
            tuple(sect_mat[j][k] % a.inv_factors[j] for k in range(t))
            for j in range(sa)
        ),
    )
    proj_b = Homomorphism(
        source=total,
        target=b,
        matrix=tuple(
            tuple(sect_mat[sa + j][k] % b.inv_factors[j] for k in range(t))
            for j in range(sb)
        ),
    )
    if a.order > 1 and b.order > 1:
        info = total.analysis
        info.summands = info.summands or (a, b)
    memo[b] = total, (inj_a, inj_b), (proj_a, proj_b)
    return memo[b]
