"""Exact integer linear algebra: Smith and Hermite normal forms, homogeneous
congruence systems, and canonical representations of subgroups of finite
abelian groups.

A subgroup of prod Z/m_j is stored as the row Hermite normal form of its
preimage lattice in Z^n, which always contains every m_j*e_j.  One modular
insertion kernel (``_full_hnf``; Domich, Kannan & Trotter, Math. Oper. Res.
12, 1987; Cohen, GTM 138, Sec. 2.4.2) builds every such form: it starts from
diag(m) or from an existing full HNF and inserts each generator with one
extended-gcd sweep down the diagonal.  Because every m_j*e_j stays in the
lattice, each entry right of the diagonal, in the inserted vector and in the
basis rows, may be kept reduced modulo its column modulus, so entries never
grow.  Meets and congruence kernels are lower-right blocks of one larger
insertion HNF: the rows (a, a) and (b, 0) give the meet of <a> and <b>, and
the rows (B[:, j], e_j) give {x : Bx = 0}.  A single modulus needs no sweep:
the form over Z/m is the gcd of the start pivot and the entries, and the
solutions of one column are generated by lcm_i(m_i/gcd(a_i, m_i)), since
a*x = 0 (mod m) iff m/gcd(a, m) divides x.  A form that arrives with no rows
to insert is already final and is taken as it is.

Matrices go in as lists of rows, and every subgroup comes out as a
``CanonicalSubgroup``, whether it was generated or solved for.

Equal subgroups are one object while one is alive (hash-consing: Filliatre
& Conchon, "Type-safe modular hash-consing", ML Workshop 2006).  Every
factory builds through ``CanonicalSubgroup.__init__`` and returns
``_intern``'s instance from a weak table keyed by (moduli, full HNF), so
equal subgroups share one hash and one lazy Smith presentation.  The
relations that callers repeat (row builds, congruence solves, meets, sums,
containment) are served from LRU caches of ``CACHE_SIZE`` entries keyed by
interned operands, so a hit is an identity test.  Equality still compares
forms after identity, since a direct build is not interned.

All arithmetic uses Python's arbitrary-precision integers; intermediate
entries of a Smith reduction can exceed machine words even for small inputs.
Every routine is deterministic (fixed pivot rules, no randomization), so equal
inputs always produce bit-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from collections import namedtuple
from math import gcd, lcm, prod
from operator import mul

# Entries kept by each of the LRU caches below.
CACHE_SIZE = 1024


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_with_transforms(a_rows, track_rows=True):
    """Smith reduction on a list-of-rows matrix.

    Returns (U, D, V, Vinv) as lists of rows with U*A*V = D.  Vinv is the
    exact inverse of V, tracked alongside so callers can translate between
    original and Smith coordinates without a separate inversion.  With
    ``track_rows`` false U is not accumulated: its rows stay empty.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    D = [list(r) for r in a_rows]
    U = _identity_rows(m) if track_rows else [[] for _ in range(m)]
    V = _identity_rows(n)
    Vinv = _identity_rows(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    def sub_row(i, s, q):
        # row i -= q * row s
        Di, Ds = D[i], D[s]
        for k in range(n):
            Di[k] -= q * Ds[k]
        U[i] = [a - q * b for a, b in zip(U[i], U[s])]

    def add_row(i, j):
        Di, Dj = D[i], D[j]
        for k in range(n):
            Di[k] += Dj[k]
        U[i] = [a + b for a, b in zip(U[i], U[j])]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def sub_col(j, s, q):
        # col j -= q * col s;  Vinv row s += q * Vinv row j
        for r in D:
            r[j] -= q * r[s]
        for r in V:
            r[j] -= q * r[s]
        Vs, Vj = Vinv[s], Vinv[j]
        for k in range(n):
            Vs[k] += q * Vj[k]

    for s in range(min(m, n)):
        while True:
            pivot = None
            for i in range(s, m):
                Di = D[i]
                for j in range(s, n):
                    a = Di[j]
                    if a != 0:
                        key = (abs(a), i, j)
                        if pivot is None or key < pivot:
                            pivot = key
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != s:
                swap_rows(s, pi)
            if pj != s:
                swap_cols(s, pj)
            if D[s][s] < 0:
                negate_row(s)
            p = D[s][s]
            for i in range(s + 1, m):
                if D[i][s]:
                    sub_row(i, s, D[i][s] // p)
            for j in range(s + 1, n):
                if D[s][j]:
                    sub_col(j, s, D[s][j] // p)
            if any(D[i][s] for i in range(s + 1, m)) or any(
                D[s][j] for j in range(s + 1, n)
            ):
                continue
            bad = None
            for i in range(s + 1, m):
                Di = D[i]
                for j in range(s + 1, n):
                    if Di[j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(s, bad)
        if all(D[s][j] == 0 for j in range(s, n)):
            break
    return U, D, V, Vinv


def snf(rows):
    """Smith normal form with unimodular transforms: U * A * V = D, where A,
    U, D and V are lists of rows.

    D is diagonal with nonnegative entries satisfying D[i][i] | D[i+1][i+1].

    >>> U, D, V = snf([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged rows")
    U, D, V, _ = _snf_with_transforms(rows)
    return U, D, V


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _full_hnf(gen_rows, moduli, start=None):
    """Row HNF of the lattice spanned by ``gen_rows`` and every
    moduli[j]*e_j, as n lists with pivots on the diagonal.

    ``start`` is the full HNF of a lattice that already contains every
    moduli[j]*e_j (default diag(moduli)); the rows are inserted into it.
    A row whose length is not that of ``moduli`` raises ValueError.
    Each row takes one sweep down the diagonal: at column i an extended-gcd
    step replaces (h_i, v) by (s*h_i + t*v, (b/g)*h_i - (a/g)*v), which is
    unimodular and clears v[i].  Rows below i still span every m_j*e_j with
    j > i, so the entries right of the diagonal are kept mod m_j.  Entries
    above each pivot are reduced into [0, pivot) once at the end.  Over one
    modulus the form is the gcd of the start pivot and the entries.
    """
    n = len(moduli)
    if n == 1:
        g = moduli[0] if start is None else start[0][0]
        for row in gen_rows:
            if len(row) != 1:
                raise ValueError("row length does not match moduli")
            g = gcd(g, row[0])
        return [[g]]
    if start is None:
        h = [[0] * n for _ in range(n)]
        for j, mj in enumerate(moduli):
            h[j][j] = mj
    else:
        h = [list(r) for r in start]
    changed = False
    for row in gen_rows:
        if len(row) != n:
            raise ValueError("row length does not match moduli")
        v = [x % m for x, m in zip(row, moduli)]
        if not any(v):
            continue
        for i in range(n):
            b = v[i]
            if not b:
                continue
            hi = h[i]
            a = hi[i]
            q, r = divmod(b, a)
            if not r:
                for k in range(i + 1, n):
                    if hi[k]:
                        v[k] = (v[k] - q * hi[k]) % moduli[k]
                continue
            changed = True
            g, s, t = _xgcd(a, b)
            ag, bg = a // g, b // g
            new = [0] * n
            new[i] = g
            for k in range(i + 1, n):
                x, y = hi[k], v[k]
                if x or y:
                    mk = moduli[k]
                    new[k] = (s * x + t * y) % mk
                    v[k] = (bg * x - ag * y) % mk
            h[i] = new
    if changed:
        for i in range(1, n):
            hi = h[i]
            p = hi[i]
            for k in range(i):
                hk = h[k]
                q = hk[i] // p
                if q:
                    for c in range(i, n):
                        hk[c] -= q * hi[c]
    return h


def _lower_block(rows, top_moduli, moduli):
    """Full HNF over ``moduli`` of {x : (0, x) in the span of ``rows``} inside
    prod Z/top_moduli x prod Z/moduli: the lower-right block of the HNF."""
    k = len(top_moduli)
    full = _full_hnf(rows, tuple(top_moduli) + tuple(moduli))
    return [r[k:] for r in full[k:]]


class CanonicalSubgroup:
    """A subgroup of prod Z/moduli[j] in canonical Hermite form.

    Two instances represent the same subgroup iff they compare equal; the
    canonical form makes equality a tuple comparison, and the hash of that
    tuple is taken once, when the instance is built.  A copy unpickles as
    the interned instance.
    """

    __slots__ = ("moduli", "full_hnf", "basis", "order", "_smith", "_hash", "__weakref__")

    def __init__(self, moduli, generator_rows, hnf=None):
        """``hnf``, when given, is the full HNF of a subgroup over the same
        moduli; the generator rows are inserted into it.  With no rows it is
        the finished form, taken as it is."""
        moduli = tuple(moduli)
        if moduli and min(moduli) < 1:
            raise ValueError("moduli must be positive")
        if hnf is None or generator_rows:
            hnf = _full_hnf(generator_rows, moduli, hnf)
        self.moduli = moduli
        self.full_hnf = full = tuple(map(tuple, hnf))
        # a reduced row is nonzero mod the moduli unless its pivot is its modulus
        basis, index = [], 1
        for i, r in enumerate(full):
            index *= r[i]
            if r[i] != moduli[i]:
                basis.append(r)
        self.basis = tuple(basis)
        self.order = prod(moduli) // index
        self._smith = None
        self._hash = hash((moduli, self.full_hnf))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CanonicalSubgroup):
            return NotImplemented
        same = self._hash == other._hash and self.full_hnf == other.full_hnf
        return same and self.moduli == other.moduli

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return generated_subgroup, (self.moduli, self.basis)

    def __repr__(self):
        return f"CanonicalSubgroup(order={self.order}, basis={list(self.basis)})"

    def express(self, vec):
        """Integer coordinates of ``vec`` w.r.t. the full HNF rows, or None
        when the (integer lift of the) vector is not in the lattice."""
        n = len(self.moduli)
        v = list(vec)
        x = [0] * n
        for i in range(n):
            h = self.full_hnf[i]
            if v[i] % h[i] != 0:
                return None
            q = v[i] // h[i]
            x[i] = q
            if q:
                for k in range(i, n):
                    v[k] -= q * h[k]
        return x

    def contains(self, vec) -> bool:
        return self.express(vec) is not None

    def sum(self, other: "CanonicalSubgroup") -> "CanonicalSubgroup":
        if self.moduli != other.moduli:
            raise ValueError("ambient mismatch")
        return _sum(self, other)

    def intersect(self, other: "CanonicalSubgroup") -> "CanonicalSubgroup":
        if self.moduli != other.moduli:
            raise ValueError("ambient mismatch")
        return _meet(self, other)

    def _smith_data(self):
        """(invariants, Smith generators, projection): the subgroup is Z^n
        modulo the relations among its full HNF rows, and a generator of that
        presentation, pushed through the rows, is a Smith generator."""
        if self._smith is None:
            n = len(self.moduli)
            # Relations x with sum x_i h_i = 0; lcm(moduli) * e_i is one.
            exponent = lcm(*self.moduli)
            graph = [
                h + tuple(int(i == j) for j in range(n))
                for i, h in enumerate(self.full_hnf)
            ]
            nf = finite_presentation(_lower_block(graph, self.moduli, (exponent,) * n), n)
            gens = tuple(
                tuple(
                    sum(c * h[j] for c, h in zip(col, self.full_hnf)) % m
                    for j, m in enumerate(self.moduli)
                )
                for col in zip(*nf.section)
            )
            self._smith = (nf.invariants, gens, nf.projection)
        return self._smith

    @property
    def invariants(self) -> tuple[int, ...]:
        """Abelian invariant factors d_1 | d_2 | ... (trivial factors dropped)."""
        return self._smith_data()[0]

    @property
    def smith_gens(self) -> tuple[tuple[int, ...], ...]:
        """Generators realizing the invariant-factor decomposition."""
        return self._smith_data()[1]

    def coords(self, vec):
        """Coordinates of a member in the invariant-factor decomposition."""
        invariants, _, projection = self._smith_data()
        x = self.express(vec)
        if x is None:
            raise ValueError("vector not in subgroup")
        return tuple(sum(map(mul, x, p)) % d for p, d in zip(projection, invariants))

    def from_coords(self, coords):
        n = len(self.moduli)
        out = [0] * n
        for c, g in zip(coords, self.smith_gens):
            for j in range(n):
                out[j] += c * g[j]
        return tuple(x % m for x, m in zip(out, self.moduli))

    def elements(self):
        """Iterate all members, deterministically."""
        invariants = self.invariants
        for coords in itertools.product(*[range(d) for d in invariants]):
            yield self.from_coords(coords)


# (moduli, full HNF) -> the one live instance of that subgroup.
_TABLE = weakref.WeakValueDictionary()


def _intern(group):
    """The table's instance equal to ``group``: ``group`` itself when none
    is alive."""
    return _TABLE.setdefault((group.moduli, group.full_hnf), group)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _contains(a, b):
    return all(a.contains(r) for r in b.basis)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _sum(a, b):
    # Insert the shorter basis into the other's full HNF.
    if len(a.basis) < len(b.basis):
        a, b = b, a
    return _intern(CanonicalSubgroup(a.moduli, b.basis, a.full_hnf))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _meet(a, b):
    # (a + b, a) has first half 0 exactly when a = -b lies in the meet.
    zero = (0,) * len(a.moduli)
    rows = [x + x for x in a.basis] + [y + zero for y in b.basis]
    return _intern(CanonicalSubgroup(a.moduli, (), _lower_block(rows, a.moduli, a.moduli)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _generated(moduli, rows):
    return _intern(CanonicalSubgroup(moduli, rows))


def generated_subgroup(moduli, rows) -> CanonicalSubgroup:
    """The subgroup of prod Z/moduli generated by ``rows``, cached by
    (moduli, rows) as given: equal rows listed in another order are a
    separate entry with the same interned answer."""
    return _generated(tuple(moduli), tuple(map(tuple, rows)))


def solve_homogeneous_congruences(rows, row_moduli, col_moduli) -> CanonicalSubgroup:
    """The subgroup {x : A x = 0 (mod row_moduli, rowwise)} of
    prod Z/col_moduli[j], where A is given as a list of ``rows``.

    The system must be compatible with the column moduli (each col_moduli[j]
    * e_j must itself solve the system), so that the solution set is a
    well-defined subgroup of the ambient product; otherwise ValueError.

    Every row is first lifted to the modulus big = lcm(row_moduli) and the
    lifted rows are reduced to their canonical basis B (at most n rows), which
    keeps the solve small when the caller supplies thousands of redundant
    rows.  The solutions are then the lower-right block of the HNF of the
    rows (B[:, j], e_j) over (big,)*k + col_moduli.

    One column needs no HNF: its solutions are generated by
    lcm_i(m_i/gcd(a_i, m_i)).

    >>> solve_homogeneous_congruences([[2]], [4], [4]).basis
    ((2,),)

    Answers are cached by (rows, row_moduli, col_moduli) as given; an input
    that raises is not stored.
    """
    return _solve(tuple(map(tuple, rows)), tuple(row_moduli), tuple(col_moduli))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _solve(rows, row_moduli, col_moduli):
    n = len(col_moduli)
    if len(rows) != len(row_moduli):
        raise ValueError("row count does not match moduli")
    if any(len(r) != n for r in rows):
        raise ValueError("row length does not match column moduli")
    for m in row_moduli:
        if m < 1:
            raise ValueError("moduli must be positive")
    for i, (row, m) in enumerate(zip(rows, row_moduli)):
        for j, (x, c) in enumerate(zip(row, col_moduli)):
            if (x * c) % m != 0:
                raise ValueError(
                    f"system is not defined modulo column modulus at ({i},{j})"
                )
    if n == 1:
        d = lcm(*(m // gcd(row[0], m) for row, m in zip(rows, row_moduli)))
        return _intern(CanonicalSubgroup(col_moduli, (), [[d]]))
    big = lcm(*row_moduli)
    lifted = {
        tuple(x * (big // m) % big for x in row)
        for row, m in zip(rows, row_moduli)
    }
    # rows with pivot big are big*e_i, zero mod big
    b_rows = [r for i, r in enumerate(_full_hnf(lifted, (big,) * n)) if r[i] != big]
    graph = [
        tuple(r[j] for r in b_rows) + tuple(int(i == j) for i in range(n))
        for j in range(n)
    ]
    return _intern(CanonicalSubgroup(
        col_moduli, (), _lower_block(graph, (big,) * len(b_rows), col_moduli)
    ))


class PresentationNF(namedtuple("PresentationNF", "invariants projection section")):
    """Invariant-factor normal form of Z^n modulo a relation lattice.

    ``projection`` (len(invariants) x n) maps old coordinates to normal-form
    coordinates and ``section`` (n x len(invariants)) picks an integer
    representative for each normal-form generator; projection @ section is
    the identity exactly.
    """

    __slots__ = ()


def finite_presentation(relation_rows, ncols) -> PresentationNF:
    """Normal form of the quotient Z^ncols / rowspan(relation_rows).

    The quotient must be finite (the relation lattice has full rank).
    """
    rows = [list(r) for r in relation_rows]
    _, D, V, Vinv = _snf_with_transforms(rows, track_rows=False)
    for i in range(ncols):
        if i >= len(rows) or D[i][i] == 0:
            raise ValueError("relation lattice is not full rank; quotient infinite")
    kept = [i for i in range(ncols) if D[i][i] > 1]
    invariants = tuple(D[i][i] for i in kept)
    projection = tuple(
        tuple(V[j][k] % D[k][k] for j in range(ncols)) for k in kept
    )
    section = tuple(tuple(Vinv[k][j] for k in kept) for j in range(ncols))
    return PresentationNF(invariants, projection, section)
