"""Independent brute-force ground truth.

Everything here works on raw element sets with elementwise arithmetic:
homomorphisms are enumerated generator-by-generator and filtered, subgroups
are closed by breadth-first search, and the radicals are evaluated from their
definitions.  No congruence solving and no Hermite reduction happens on this
path; the canonical Submodule constructor is shared data model, used only to
package results for comparison.

Budgets are hard caps: exceeding one raises BudgetExceeded rather than
truncating, because a truncated oracle is worse than none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import FiniteModule
from .homspace import Homomorphism
from .lattice import Submodule


@dataclass(frozen=True)
class OracleBudget:
    max_module_order: int = 256
    max_hom_enumeration: int = 65536
    max_lattice: int = 2000


DEFAULT_BUDGET = OracleBudget()


class BudgetExceeded(Exception):
    def __init__(self, what: str, needed, budget):
        super().__init__(f"{what}: needs {needed}, budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


def _check_module(module: FiniteModule, budget: OracleBudget):
    if module.order > budget.max_module_order:
        raise BudgetExceeded("module order", module.order, budget.max_module_order)


def _elements(module: FiniteModule):
    return [
        coeffs
        for coeffs in itertools.product(*[range(d) for d in module.inv_factors])
    ]


def _vec_add(a, b, orders):
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def _subgroup_closure(seed, orders):
    """The subgroup generated by ``seed``, adjoining one element at a time:
    H + <s> is every h + k*s."""
    zero = tuple(0 for _ in orders)
    group = {zero}
    for s in seed:
        s = tuple(x % d for x, d in zip(s, orders))
        if s in group:
            continue
        multiples = [zero, s]
        while (nxt := _vec_add(multiples[-1], s, orders)) != zero:
            multiples.append(nxt)
        group = {_vec_add(h, m, orders) for h in group for m in multiples}
    return frozenset(group)


def _brute_cyclic(module, vec):
    """Element set of R*vec: the action images of one element."""
    out = set()
    for r in module.ring.elements():
        out.add(module.act_coeffs(r.coeffs, vec))
    return frozenset(out)


def brute_hom_group(
    source: FiniteModule, target: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET
):
    """All homomorphisms, by enumerating generator images and filtering.

    Each generator of order d may map to any target element killed by d;
    linearity is checked elementwise against every ring basis action.
    """
    return _brute_homs_into(source, target, _elements(target), budget)


def _brute_homs_into(source, target, allowed, budget):
    d = source.inv_factors
    e = target.inv_factors
    s = source.ngens
    candidates = []
    total = 1
    for j in range(s):
        pool = [y for y in allowed if all((d[j] * v) % ek == 0 for v, ek in zip(y, e))]
        candidates.append(pool)
        total *= len(pool)
        if total > budget.max_hom_enumeration:
            raise BudgetExceeded(
                "hom candidates", total, budget.max_hom_enumeration
            )
    out = []
    ring = source.ring
    basis = [tuple(1 if t == i else 0 for t in range(ring.rank)) for i in range(ring.rank)]
    for choice in itertools.product(*candidates):
        ok = True
        for i in range(ring.rank):
            a = source.actions[i]
            for j in range(s):
                # f(b_i . g_j) computed from the chosen images
                lhs = tuple(0 for _ in e)
                for k in range(s):
                    c = a[k][j]
                    if c:
                        lhs = _vec_add(
                            lhs,
                            tuple((c * v) % ek for v, ek in zip(choice[k], e)),
                            e,
                        )
                rhs = target.act_coeffs(basis[i], choice[j])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            matrix = tuple(
                tuple(choice[j][k] for j in range(s)) for k in range(len(e))
            )
            out.append(Homomorphism(source, target, matrix))
    return out


_brute_endo_cache: dict = {}


def _brute_maps_into_subgroup(module, subgroup_elems, budget):
    """Maps M -> M with image inside the given element set, elementwise."""
    key = (module, subgroup_elems)
    hit = _brute_endo_cache.get(key)
    if hit is None:
        hit = _brute_homs_into(module, module, sorted(subgroup_elems), budget)
        _brute_endo_cache[key] = hit
    return hit


def brute_product(
    module: FiniteModule,
    left: Submodule,
    right: Submodule,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Submodule:
    """The product evaluated over every map and every element, definitionally."""
    _check_module(module, budget)
    left_elems = frozenset(e.coeffs for e in left.elements())
    right_elems = frozenset(e.coeffs for e in right.elements())
    return Submodule.from_subgroup_rows(
        module, _brute_product_elems(module, left_elems, right_elems, budget)
    )


def _brute_product_elems(module, left_elems, right_elems, budget):
    images = set()
    for f in _brute_maps_into_subgroup(module, right_elems, budget):
        for n in left_elems:
            images.add(f.apply_vec(n))
    return sorted(_subgroup_closure(images, module.inv_factors))


def brute_all_submodules(
    module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET
):
    """Every action-closed subgroup, by closing element sets under addition
    and the ring action, extending by cyclic generators."""
    _check_module(module, budget)
    orders = module.inv_factors
    cyclic_reps = {}
    for x in _elements(module):
        c = _brute_cyclic(module, x)
        cyclic_reps.setdefault(c, x)
    zero = frozenset({tuple(0 for _ in orders)})
    found = {zero: None}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for cyc, rep in cyclic_reps.items():
            if rep in cur:
                continue
            bigger = _subgroup_closure(set(cur) | set(cyc), orders)
            if bigger not in found:
                if len(found) >= budget.max_lattice:
                    raise BudgetExceeded("lattice", len(found), budget.max_lattice)
                found[bigger] = None
                frontier.append(bigger)
    return [
        Submodule.from_subgroup_rows(module, sorted(elems)) for elems in found.keys()
    ]


def brute_is_locally_nilpotent(
    module: FiniteModule, sub: Submodule, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Definitional check: the set of all cyclic submodules of ``sub`` must
    admit a uniform length at which all ordered products vanish.

    Exact via cycle detection on the level sets of reachable products.
    """
    _check_module(module, budget)
    orders = module.inv_factors
    zero = frozenset({tuple(0 for _ in orders)})
    cyclics = set()
    for x in _elems_of(sub):
        c = _brute_cyclic(module, x)
        if c != zero:
            cyclics.add(c)
    if not cyclics:
        return True
    cyclics = sorted(cyclics)
    product_memo = {}

    def elem_product(p, c):
        key = (p, c)
        if key not in product_memo:
            product_memo[key] = frozenset(
                _brute_product_elems(module, p, c, budget)
            )
        return product_memo[key]

    states = frozenset(cyclics)
    seen_levels = {states}
    while True:
        nxt = set()
        for p in states:
            for c in cyclics:
                q = elem_product(p, c)
                if q != zero:
                    nxt.add(q)
        if not nxt:
            return True
        nxt = frozenset(nxt)
        if nxt in seen_levels:
            return False
        seen_levels.add(nxt)
        states = nxt


def brute_ell(module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET) -> Submodule:
    """Sum of all locally nilpotent submodules, each classified definitionally."""
    _check_module(module, budget)
    total = set()
    for s in brute_all_submodules(module, budget):
        if brute_is_locally_nilpotent(module, s, budget):
            total |= _elems_of(s)
    return Submodule.from_subgroup_rows(
        module, sorted(_subgroup_closure(total, module.inv_factors))
    )


def _elems_of(sub: Submodule):
    return frozenset(e.coeffs for e in sub.elements())


def brute_fully_invariant_submodules(
    module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET
):
    """Submodules that every endomorphism maps into themselves, checked on
    every element."""
    _check_module(module, budget)
    endos = brute_hom_group(module, module, budget)
    out = []
    for s in brute_all_submodules(module, budget):
        es = _elems_of(s)
        if all(f.apply_vec(x) in es for f in endos for x in es):
            out.append(s)
    return out


def brute_prime_radical(
    module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET
) -> Submodule:
    """Intersection of all prime submodules, fully definitionally."""
    _check_module(module, budget)
    fi = brute_fully_invariant_submodules(module, budget)
    elems_of = {s: _elems_of(s) for s in fi}
    products = {}
    for n in fi:
        for k in fi:
            products[(n, k)] = frozenset(
                _brute_product_elems(module, elems_of[n], elems_of[k], budget)
            )
    primes = []
    for p in fi:
        if p.order == module.order:
            continue
        ep = elems_of[p]
        good = True
        for n in fi:
            for k in fi:
                if products[(n, k)] <= ep and not (
                    elems_of[n] <= ep or elems_of[k] <= ep
                ):
                    good = False
                    break
            if not good:
                break
        if good:
            primes.append(p)
    if not primes:
        return Submodule.full(module)
    acc = elems_of[primes[0]]
    for p in primes[1:]:
        acc = acc & elems_of[p]
    return Submodule.from_subgroup_rows(module, sorted(acc))


def brute_is_quasi_projective(
    module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Lifting checked map by map: for every submodule K, every map
    M -> M/K is an endomorphism followed by the projection.

    A map is fixed by the images y_i of ring-module generators x_i of M; a
    choice of cosets y_i + K is a map M -> M/K iff every relation
    sum r_i x_i = 0 sends sum r_i y_i into K.  The endomorphisms are the
    choices for K = 0, and the lifts are their images modulo K.
    """
    _check_module(module, budget)
    orders = module.inv_factors
    zero = tuple(0 for _ in orders)
    cyclic = {x: _brute_cyclic(module, x) for x in _elements(module)}
    gens, span = [], frozenset({zero})
    while len(span) < module.order:
        # |S + Rx| = |S| |Rx| / |S & Rx|: take the x that grows the span most
        x = max(cyclic, key=lambda x: len(cyclic[x]) / len(cyclic[x] & span))
        gens.append(x)
        span = _subgroup_closure(span | cyclic[x], orders)
    scalars = [r.coeffs for r in module.ring.elements()]
    if len(scalars) ** len(gens) > budget.max_hom_enumeration:
        raise BudgetExceeded(
            "relation candidates", len(scalars) ** len(gens), budget.max_hom_enumeration
        )

    def combine(coeffs, vecs):
        out = zero
        for r, v in zip(coeffs, vecs):
            out = _vec_add(out, module.act_coeffs(r, v), orders)
        return out

    relations = [
        rs
        for rs in itertools.product(scalars, repeat=len(gens))
        if any(any(r) for r in rs) and combine(rs, gens) == zero
    ]

    def maps_modulo(k_elems):
        """Coset representative of each element, and every choice of
        generator images (as representatives) that is a map M -> M/K."""
        rep = {}
        for x in _elements(module):
            if x not in rep:
                coset = [_vec_add(x, k, orders) for k in k_elems]
                low = min(coset)
                rep.update(dict.fromkeys(coset, low))
        reps = sorted(set(rep.values()))
        if len(reps) ** len(gens) > budget.max_hom_enumeration:
            raise BudgetExceeded(
                "hom candidates", len(reps) ** len(gens), budget.max_hom_enumeration
            )
        return rep, {
            ys
            for ys in itertools.product(reps, repeat=len(gens))
            if all(combine(rs, ys) in k_elems for rs in relations)
        }

    _, endos = maps_modulo(frozenset({zero}))
    for sub in brute_all_submodules(module, budget):
        rep, maps = maps_modulo(_elems_of(sub))
        if {tuple(rep[y] for y in ys) for ys in endos} != maps:
            return False
    return True


def brute_is_retractable(module: FiniteModule, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Every nonzero submodule S receives a nonzero map, checked member by
    member; a map into S is an endomorphism with generator images in S."""
    _check_module(module, budget)
    endos = brute_hom_group(module, module, budget)
    images = [list(zip(*f.matrix)) for f in endos if not f.is_zero()]
    for sub in brute_all_submodules(module, budget):
        es = _elems_of(sub)
        if not sub.is_zero() and not any(all(c in es for c in cols) for cols in images):
            return False
    return True
