"""Independent brute-force ground truth.

Each module's elements are indexed 0..|M|-1 in ``itertools.product`` order
once, with an addition table, one action table per ring basis element and
each element's multiples.  Element sets are int bitmasks (bit x is element
x; the zero subgroup is 1), closed by adjoining one generator at a time
through the tables; maps are enumerated generator by generator and filtered
by table lookups, and the radicals are evaluated from their definitions.
Products, left annihilators and the fully invariant filter read value masks,
{f(x)} over every map f into a subgroup: each listed map applied to x once,
digit by digit across all the maps, and memoized like submodule masks.  No
fast-path arithmetic happens here; the constructors only package answers.

The budgets below are hard caps: exceeding one raises BudgetExceeded rather
than truncating, because a truncated oracle is worse than none.
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import gcd, lcm, prod

from .algebra import FiniteModule, Homomorphism
from .lattice import Submodule


MAX_ORDER = 256  # module order
MAX_CANDIDATES = 65536  # partial maps or relation choices listed at once
MAX_LATTICE = 2000  # submodules


class BudgetExceeded(Exception):
    def __init__(self, what: str, needed, cap):
        super().__init__(f"{what}: needs {needed}, budget {cap}")
        self.what = what
        self.needed = needed
        self.budget = cap


def _enumerable(count: int, what: str):
    if count > MAX_CANDIDATES:
        raise BudgetExceeded(what, count, MAX_CANDIDATES)


def _le(a: int, b: int) -> bool:
    return not a & ~b


class _Tables:
    """One module's element tables and the memos of everything derived from
    them; |M|^2 entries, at most 65,536 under ``MAX_ORDER``."""

    def __init__(self, module: FiniteModule):
        orders = module.inv_factors
        self.module = module
        self.elems = elems = list(itertools.product(*map(range, orders)))
        self.weights = w = [prod(orders[j + 1:]) for j in range(len(orders))]
        self.full = (1 << len(elems)) - 1
        self.bit = [1 << x for x in range(len(elems))]
        # row v sums, for each u in order, the weighted digits (v_j + u_j) % d_j;
        # mults[x][c] is c*x for c below the exponent, which kills every element
        exponent, self.add, self.mults = lcm(*orders), [], []
        bases = [[t * wj for t in range(d)] for d, wj in zip(orders, w)]
        for v in elems:
            add, mults = [0], [0] * exponent
            for c, d, wj, base in zip(v, orders, w, bases):
                digit = base[c:] + base[:c]
                add = [a + b for a in add for b in digit]
                mults = [a + t * c % d * wj for t, a in enumerate(mults)]
            self.add.append(add)
            self.mults.append(mults)
        self.act = [self.image([self.index(c) for c in zip(*a)], orders) for a in module.actions]
        self.gens = {1: ()}  # subgroup mask -> additive generators
        self.memo = {}  # (kind, *arguments) -> answer

    def index(self, vec) -> int:
        return sum(c % d * wj for c, d, wj in zip(vec, self.module.inv_factors, self.weights))

    def members(self, mask: int) -> list[int]:
        return [x for x, b in enumerate(bin(mask)[:1:-1]) if b == "1"]

    def image(self, ys, orders) -> list[int]:
        """Image array of the additive map sending generator j, of order
        orders[j], to element ys[j]: entry x is the image of element x."""
        arr = [0]
        for y, d in zip(ys, orders):
            ms = self.mults[y]
            rows = [self.add[ms[c % len(ms)]] for c in range(d)]
            arr = [row[a] for a in arr for row in rows]
        return arr

    def evaluate(self, maps, x: int) -> list[int]:
        """f(x) for every map f in ``maps`` (generator images of maps out of
        this module): the sums of c_j * f(g_j) over the digits c_j of x,
        one digit at a time across all the maps."""
        add, mults, acc = self.add, self.mults, [0] * len(maps)
        for j, c in enumerate(self.elems[x]):
            if c:
                acc = [add[a][mults[ys[j]][c]] for a, ys in zip(acc, maps)]
        return acc

    def span(self, seed, mask: int = 1, group=None) -> int:
        """The subgroup generated by ``seed`` and the subgroup ``mask``
        (whose members are ``group``), adjoining one element at a time."""
        gens = list(self.gens[mask])
        for s in seed:
            if mask >> s & 1:
                continue
            if group is None:
                group = self.members(mask)
            mask, group = self._adjoin(s, mask, group)
            gens.append(s)
        self.gens.setdefault(mask, tuple(gens))
        return mask

    def _adjoin(self, s: int, mask: int, group):
        """(H + <s>, its members) for H the subgroup ``mask`` with members
        ``group``: the cosets H + c*s for c below the first c*s in H."""
        rows = []
        for m in self.mults[s][1:]:
            if mask >> m & 1:
                break
            rows.append(self.add[m])
        new = [row[h] for row in rows for h in group]
        return mask | sum(map(self.bit.__getitem__, new)), group + new

    def generators(self, mask: int) -> tuple[int, ...]:
        if mask not in self.gens:
            self.span(self.members(mask))
        return self.gens[mask]

    def mask(self, sub: Submodule) -> int:
        key = ("mask", sub.subgroup)  # interned, so a hit compares by identity
        if key not in self.memo:
            self.memo[key] = self.span(map(self.index, sub.basis))
        return self.memo[key]

    def join(self, masks) -> int:
        """The subgroup generated by the element sets ``masks``: the span of
        their union, adjoining only the least member the span so far lacks,
        which is the next member of the union ``span`` would adjoin."""
        union, mask, group, gens = functools.reduce(operator.or_, masks, 1), 1, [0], []
        while lack := union & ~mask:
            s = (lack & -lack).bit_length() - 1
            mask, group = self._adjoin(s, mask, group)
            gens.append(s)
        self.gens.setdefault(mask, tuple(gens))
        return mask

    def package(self, mask: int) -> Submodule:
        key = ("package", mask)
        if key not in self.memo:
            self.memo[key] = Submodule.from_subgroup_rows(
                self.module, [self.elems[g] for g in self.generators(mask)])
        return self.memo[key]

    @functools.cached_property
    def cyclic(self) -> list[int]:
        """Rx for every element x: the closure of the b_i * x, spanned once
        per class {kx : k prime to the order of x}.  Each kx spans Rx: it
        lies in Rx, and x = k'(kx) for k' inverse to k modulo that order."""
        cyclic = [0] * len(self.elems)
        for x, ms in enumerate(self.mults):
            if not cyclic[x]:
                c, order = self.span([a[x] for a in self.act]), len(ms) // ms.count(0)
                for k in range(order):
                    if gcd(k, order) == 1:
                        cyclic[ms[k]] = c
        return cyclic

    def homs(self, source: FiniteModule, k: int):
        """Every map source -> this module with image in the subgroup k, as
        generator images in lexicographic order.  Generator j may map to any
        element of k killed by its order; b_i * g_j = sum_t a_i[t][j] g_t is
        checked once the images it names are chosen, unless it holds of every
        map.  After generator 0, each level tries every generator left and
        keeps the one that leaves the fewest partial maps (README, "Design
        notes").  ``MAX_CANDIDATES`` bounds each trial: the maps kept so far
        times the generator's pool."""
        key = ("homs", source, k)
        if key not in self.memo:
            d, allowed = source.inv_factors, self.members(k)
            pools = [[y for y in allowed if self.mults[y][dj % len(self.mults[y])] == 0]
                     for dj in d]
            # b_i * g_j = g_j holds of every map when b_i fixes g_j and every
            # element of this module, so that relation is not checked
            ident, checks = list(range(len(self.elems))), []
            for act, a in zip(self.act, source.actions):
                for j in range(len(d)):
                    terms = [(t, a[t][j]) for t in range(len(d)) if a[t][j]]
                    if terms != [(j, 1)] or act != ident:
                        checks.append((act, j, terms))
            order, maps = [], [()]
            while len(order) < len(d):
                rest = [g for g in range(len(d)) if g not in order] if order else [0]
                _enumerable(len(maps) * min(len(pools[g]) for g in rest), "hom candidates")
                order, maps = min((self._extend(maps, order + [g], pools[g], checks) for g in rest
                                   if len(maps) * len(pools[g]) <= MAX_CANDIDATES),
                                  key=lambda trial: len(trial[1]))
            if order != sorted(order):  # back to generator order, then lexicographic
                maps = sorted(tuple(ys[order.index(j)] for j in range(len(d))) for ys in maps)
            self.memo[key] = maps
        return self.memo[key]

    def _extend(self, maps, order, pool, checks):
        """(order, the maps extending ``maps`` by images in ``pool`` of the last generator)."""
        pos = {g: p for p, g in enumerate(order)}
        level = [(act, pos[j], [(pos[t], c) for t, c in terms]) for act, j, terms in checks
                 if order[-1] in (names := {j, *(t for t, _ in terms)}) and names <= pos.keys()]
        if not level:
            return order, [pre + (y,) for pre in maps for y in pool]
        return order, [ys for pre in maps for y in pool if self._linear(ys := pre + (y,), level)]

    def _linear(self, ys, checks) -> bool:
        for act, j, terms in checks:
            lhs = 0
            for t, c in terms:
                ms = self.mults[ys[t]]
                lhs = self.add[lhs][ms[c % len(ms)]]
            if lhs != act[ys[j]]:
                return False
        return True

    def values(self, x: int, k: int) -> int:
        """{f(x) : f: M -> k}, applying every map into the subgroup k to x."""
        key = ("values", x, k)
        if key not in self.memo:
            values = set(self.evaluate(self.homs(self.module, k), x))
            self.memo[key] = sum(map(self.bit.__getitem__, values))
        return self.memo[key]

    def product(self, n: int, k: int) -> int:
        """N*K: the subgroup generated by f(N) for every map f: M -> K, where
        f(N) is generated by the values of N's generators."""
        key = ("product", n, k)
        if key not in self.memo:
            self.memo[key] = self.join(self.values(g, k) for g in self.generators(n))
        return self.memo[key]

    @functools.cached_property
    def lattice(self) -> list[int]:
        """Every submodule, adding each distinct cyclic to each member found."""
        cyclics = list(dict.fromkeys(self.cyclic))
        found, frontier = {1: None}, [1]
        while frontier:
            cur = frontier.pop()
            group = self.members(cur)
            for c in cyclics:
                if _le(c, cur):
                    continue
                bigger = self.span(self.gens[c], cur, group)
                if bigger not in found:
                    if len(found) >= MAX_LATTICE:
                        raise BudgetExceeded("lattice", len(found), MAX_LATTICE)
                    found[bigger] = None
                    frontier.append(bigger)
        return list(found)

    def locally_nilpotent(self, sub: int) -> bool:
        """The cyclic submodules of ``sub`` admit a uniform length at which
        all ordered products vanish: walk the level sets of products until
        one is empty or one repeats."""
        cyclics = {self.cyclic[x] for x in self.members(sub)} - {1}
        states, seen = frozenset(cyclics), set()
        while states:
            if states in seen:
                return False
            seen.add(states)
            products = (self.product(p, c) for p in states for c in cyclics)
            states = frozenset(products) - {1}
        return True

    @functools.cached_property
    def primes(self) -> list[int]:
        """The masks of ``brute_primes``."""
        fi = self.fully_invariant()
        return [p for p in fi if p != self.full and all(
            _le(n, p) or _le(k, p) or not _le(self.product(n, k), p) for n in fi for k in fi)]

    def fully_invariant(self) -> list[int]:
        """Submodules S with f(g) in S for every endomorphism f and every
        generator g of S: the value mask of g in M."""
        self.homs(self.module, self.full)  # End(M) is listed before the lattice
        return [
            s for s in self.lattice
            if all(_le(self.values(g, self.full), s) for g in self.generators(s))
        ]


_tables = functools.lru_cache(maxsize=4)(_Tables)


def _tables_within(module: FiniteModule) -> _Tables:
    if module.order > MAX_ORDER:
        raise BudgetExceeded("module order", module.order, MAX_ORDER)
    return _tables(module)


def brute_hom_group(source: FiniteModule, target: FiniteModule):
    """All homomorphisms, by enumerating generator images and filtering; the
    target's order is checked before its tables (quadratic in its order) are
    built."""
    t = _tables_within(target)
    empty = ((),) * target.ngens  # the matrix of a map out of a module with no generators
    return [
        Homomorphism(source, target, tuple(zip(*map(t.elems.__getitem__, ys))) or empty)
        for ys in t.homs(source, t.full)
    ]


def brute_product(module: FiniteModule, left: Submodule, right: Submodule):
    """The product evaluated over every map, definitionally."""
    t = _tables_within(module)
    return t.package(t.product(t.mask(left), t.mask(right)))


def brute_all_submodules(module: FiniteModule):
    """Every action-closed subgroup, by closing element sets under addition,
    extending by cyclic submodules."""
    t = _tables_within(module)
    return [t.package(s) for s in t.lattice]


def brute_is_locally_nilpotent(module: FiniteModule, sub: Submodule) -> bool:
    """Definitional check: the cyclic submodules of ``sub`` admit a uniform
    length at which all ordered products vanish.  Exact via cycle detection
    on the level sets of reachable products."""
    t = _tables_within(module)
    return t.locally_nilpotent(t.mask(sub))


def brute_is_nil_submodule(module: FiniteModule, sub: Submodule) -> bool:
    """Definitional check: every map from the module into each cyclic
    submodule of ``sub`` is nilpotent.  Each map is iterated on its image
    array until it reaches zero (nilpotent) or repeats (not)."""
    t = _tables_within(module)
    zero = [0] * len(t.elems)
    for c in {t.cyclic[x] for x in t.members(t.mask(sub))}:
        for ys in t.homs(module, c):
            f = power = t.image(ys, module.inv_factors)
            seen = set()
            while power != zero:
                if (key := tuple(power)) in seen:
                    return False
                seen.add(key)
                power = [f[y] for y in power]
    return True


def brute_ell(module: FiniteModule) -> Submodule:
    """Sum of all locally nilpotent submodules, each classified
    definitionally, walked up the lattice by size: a member below the sum
    so far adds nothing, and one above a member that is not locally
    nilpotent has that member's cyclics among its own, so it is not either."""
    t = _tables_within(module)
    total, failed = 1, []
    for s in sorted(t.lattice, key=int.bit_count):
        if _le(s, total) or any(_le(f, s) for f in failed):
            continue
        if t.locally_nilpotent(s):
            total = t.span(t.generators(s), total)
        else:
            failed.append(s)
    return t.package(total)


def brute_fully_invariant_submodules(module: FiniteModule):
    """Submodules that every endomorphism maps into themselves, checked on
    every generator."""
    t = _tables_within(module)
    return [t.package(s) for s in t.fully_invariant()]


def brute_primes(module: FiniteModule) -> list[Submodule]:
    """The prime submodules, fully definitionally: the proper fully
    invariant P such that N*K <= P forces N <= P or K <= P over every fully
    invariant pair.  N*K is formed only for a pair with both factors outside
    some candidate P."""
    t = _tables_within(module)
    return [t.package(p) for p in t.primes]


def brute_prime_radical(module: FiniteModule) -> Submodule:
    """The meet of ``brute_primes``, the module itself when there are none."""
    t = _tables_within(module)
    return t.package(functools.reduce(operator.and_, t.primes)) if t.primes else Submodule.full(module)


def brute_ann_left(module: FiniteModule, sub: Submodule) -> Submodule:
    """The elements that every map M -> sub sends to 0: those whose value
    mask is the zero subgroup."""
    t = _tables_within(module)
    k = t.mask(sub)
    return t.package(sum(t.bit[x] for x in range(len(t.elems)) if t.values(x, k) == 1))


def brute_ann_right(module: FiniteModule, sub: Submodule) -> Submodule:
    """Sum of every submodule K with sub*K = 0."""
    t = _tables_within(module)
    n = t.mask(sub)
    return t.package(t.join(k for k in t.lattice if t.product(n, k) == 1))


def brute_annihilator_lattice(module: FiniteModule):
    """Every intersection of endomorphism kernels, M being the empty one:
    each endomorphism's kernel is read off its image array, and the kernels
    are closed under intersection."""
    t = _tables_within(module)
    family = {t.full}
    for ys in t.homs(module, t.full):
        arr = t.image(ys, module.inv_factors)
        ker = sum(t.bit[x] for x, y in enumerate(arr) if y == 0)
        family |= {s & ker for s in family}
    return [t.package(s) for s in sorted(family)]


def brute_is_quasi_projective(module: FiniteModule) -> bool:
    """Lifting checked by counting maps: composing with M -> M/K sends End(M)
    onto the maps that lift, with kernel Hom(M, K), so every map M -> M/K
    lifts iff |Hom(M, M/K)| |Hom(M, K)| = |End(M)|; ``_Tables.homs`` lists
    Hom(M, K).  A choice of cosets y_i + K for ring-module generators x_i of
    M is a map M -> M/K iff every relation sum r_i x_i = 0 sends
    sum r_i y_i into K.  Two relations that end at x_j with the same
    coefficient differ by one that ends earlier, so one relation per last
    coefficient at each j, checked once y_0, ..., y_j are chosen, checks
    them all."""
    t = _tables_within(module)
    size, gens, span = len(t.elems), [], 1
    while span != t.full:
        # |S + Rx| = |S| |Rx| / |S & Rx|: take the x that grows the span most
        x = max(range(size), key=lambda x: (c := t.cyclic[x]).bit_count() / (c & span).bit_count())
        gens.append(x)
        span = t.span(t.generators(t.cyclic[x]), span)
    _enumerable(module.ring.order ** len(gens), "relation candidates")
    # times[y][r]: the ring element with index r acting on element y
    times = [t.image([a[y] for a in t.act], module.ring.add_orders) for y in range(size)]

    def combine(rs, ys):
        out = 0
        for r, y in zip(rs, ys):
            out = t.add[out][times[y][r]]
        return out

    levels = []  # levels[j]: the relations checked once y_j is chosen
    for j in range(len(gens)):
        ending = {}
        for pre in itertools.product(range(module.ring.order), repeat=j):
            for r in range(1, module.ring.order):
                if r not in ending and combine(pre + (r,), gens) == 0:
                    ending[r] = pre + (r,)
        levels.append(list(ending.values()))

    def maps_modulo(k):
        # one representative per coset, and the choices of them that are maps
        rep, coset = [None] * size, t.members(k)
        for x in range(size):
            if rep[x] is None:
                for y in coset:
                    rep[t.add[x][y]] = x
        reps, maps = sorted(set(rep)), [()]
        for kept in levels:
            _enumerable(len(maps) * len(reps), "hom candidates")
            maps = [ys for ys in (pre + (y,) for pre in maps for y in reps)
                    if all(k >> combine(rs, ys) & 1 for rs in kept)]
        return len(maps)

    ends = len(t.homs(module, t.full))
    return all(maps_modulo(k) * len(t.homs(module, k)) == ends for k in t.lattice)


def brute_is_retractable(module: FiniteModule) -> bool:
    """Every nonzero submodule S receives a nonzero map, checked member by
    member; a map into S is an endomorphism with generator images in S."""
    t = _tables_within(module)
    images = [sum({t.bit[y] for y in ys}) for ys in t.homs(module, t.full) if any(ys)]
    return all(s == 1 or any(_le(im, s) for im in images) for s in t.lattice)
