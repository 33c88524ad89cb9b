"""Statement catalog and verification harness.

Every cataloged statement maps to an executable check over one instance
(a ring with a module over it).  Hypotheses are evaluated before conclusions,
so a vacuous pass (hypothesis not met) is always distinguishable from a real
one, and dropping a hypothesis deliberately is how counterexample searches
are run.

Corpus generation is deterministic: a fixed parametrized family list is
shuffled by a seeded generator and truncated, with two mandatory instances
(a non-quasi-projective mixed group and the smallest noncommutative
triangular ring) always present.
"""

from __future__ import annotations

import random
import time
import zlib
from collections import namedtuple
from math import prod

from .algebra import (
    Homomorphism,
    _BlindToLast,
    compose,
    cyclic_module,
    direct_sum,
    matrix_ring,
    memoized,
    opposite_ring,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from .config import DEFAULT_CAPS, MAX_END_ELEMENTS, CapExceeded
from .homspace import end_ring, hom_group
from .lattice import (
    Submodule,
    _lattice,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    image,
    is_quasi_projective,
    is_retractable,
    submodule_as_module,
    uniform_dimension,
)
from .product import (
    _left_powers,
    is_locally_nilpotent,
    is_nil_submodule,
    nilpotency_index,
    product,
)
from .radical import (
    ann_left,
    ann_right,
    annihilator_maps,
    end_left_annihilator,
    ell,
    is_semiprime_submodule,
    kernel_intersection,
    l_rel,
    prime_radical,
    r_rel,
    subm_sequence,
)


class Instance(namedtuple("Instance", "name ring module caps", defaults=(DEFAULT_CAPS,))):
    """A corpus entry.  Its hypotheses are read from the memoized predicates
    under ``caps``, so only a statement that names one pays for it, and a
    CapExceeded it raises reaches the check that read it."""

    __slots__ = ()


class Corpus(namedtuple("Corpus", "seed instances")):
    __slots__ = ()


class VerificationReport(_BlindToLast, namedtuple(
        "VerificationReport", "statement instance outcome detail witness exercised elapsed",
        defaults=("", None, 0, 0.0))):
    """One statement on one instance.  ``outcome`` is pass, fail,
    hypothesis_not_met or skipped; ``witness`` names what failed.  Equality
    and hash leave out ``elapsed``."""

    __slots__ = ()

    def line(self) -> str:
        """Deterministic one-line rendering (timings are excluded)."""
        tag = {
            "pass": "PASS",
            "fail": "FAIL",
            "hypothesis_not_met": "HYP ",
            "skipped": "SKIP",
        }[self.outcome]
        parts = [tag, self.statement, self.instance]
        if self.outcome == "pass":
            parts.append(f"exercised={self.exercised}")
        if self.detail:
            parts.append(f"({self.detail})")
        if self.witness:
            parts.append(f"witness={self.witness}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# corpus generation


def _family_list(caps):
    """The deterministic instance family list, mandatory members first.  A
    family named by a lattice leaves out what meets a cap as it is built: a
    ring's quotients by its fully invariant submodules, or the ideals of
    T2(Z2)."""
    out = []
    ring4 = zn_ring(4)
    mixed, _, _ = direct_sum(cyclic_module(ring4, 2), regular_module(ring4))
    out.append(("Z2+Z4-over-Z4", mixed))
    out.append(("T2(Z2)-regular", regular_module(triangular_ring(2, 2))))

    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25,
              27, 28, 30, 32, 36, 40, 45, 48, 49, 54, 60, 63, 64):
        out.append((f"Z{n}-regular", regular_module(zn_ring(n))))
    for n, d in ((4, 2), (8, 2), (8, 4), (9, 3), (12, 2), (12, 3), (12, 4),
                 (12, 6), (16, 2), (16, 4), (16, 8), (18, 6), (24, 12), (25, 5),
                 (27, 3), (27, 9), (32, 8), (36, 6), (49, 7)):
        out.append((f"Z{d}-over-Z{n}", cyclic_module(zn_ring(n), d)))
    for n, parts in ((4, (2, 4)), (8, (2, 8)), (8, (4, 8)), (8, (2, 4)),
                     (9, (3, 9)), (16, (4, 16)), (16, (2, 16)), (27, (3, 27)),
                     (12, (2, 12)), (12, (6, 12)), (18, (3, 18)), (25, (5, 25))):
        ring = zn_ring(n)
        a = cyclic_module(ring, parts[0])
        b = cyclic_module(ring, parts[1])
        summed, _, _ = direct_sum(a, b)
        out.append((f"Z{parts[0]}+Z{parts[1]}-over-Z{n}", summed))
    for n in (2, 3, 4, 5, 6):
        reg = regular_module(zn_ring(n))
        sq, _, _ = direct_sum(reg, reg)
        out.append((f"Z{n}^2-free", sq))
    reg2 = regular_module(zn_ring(2))
    cube, _, _ = direct_sum(direct_sum(reg2, reg2)[0], reg2)
    out.append(("Z2^3-free", cube))

    named_rings = [
        ("M2(Z2)", matrix_ring(2, 2)),
        ("M2(Z3)", matrix_ring(2, 3)),
        ("T2(Z3)", triangular_ring(2, 3)),
        ("T2(Z4)", triangular_ring(2, 4)),
        ("T3(Z2)", triangular_ring(3, 2)),
        ("Z4xZ6", product_ring([zn_ring(4), zn_ring(6)])),
        ("Z2xZ6", product_ring([zn_ring(2), zn_ring(6)])),
        ("Z2xT2(Z2)", product_ring([zn_ring(2), triangular_ring(2, 2)])),
        ("Z3xM2(Z2)", product_ring([zn_ring(3), matrix_ring(2, 2)])),
        ("Z6xZ6", product_ring([zn_ring(6), zn_ring(6)])),
    ]
    for name, ring in named_rings:
        out.append((f"{name}-regular", regular_module(ring)))

    # quotients of structured modules by fully invariant submodules
    for name, ring in [("T2(Z2)", triangular_ring(2, 2)),
                       ("M2(Z2)", matrix_ring(2, 2)),
                       ("T3(Z2)", triangular_ring(3, 2)),
                       ("T2(Z3)", triangular_ring(2, 3))]:
        reg = regular_module(ring)
        try:
            fis = fully_invariant_submodules(reg, caps)
        except CapExceeded:
            continue
        for idx, sub in enumerate(fis):
            if sub.is_zero() or sub.is_full():
                continue
            quot, _ = quotient_module(reg, sub)
            out.append((f"{name}-regular/fi{idx}", quot))
    # a couple of proper submodules as standalone modules
    t2 = regular_module(triangular_ring(2, 2))
    try:
        ideals = all_submodules(t2, caps)
    except CapExceeded:
        ideals = []
    for idx, sub in enumerate(ideals):
        if sub.is_zero() or sub.is_full():
            continue
        out.append((f"T2(Z2)-ideal{idx}", submodule_as_module(t2, sub).module))
    # direct sums mixing shapes
    t2r = regular_module(triangular_ring(2, 2))
    t2sq, _, _ = direct_sum(t2r, t2r)
    out.append(("T2(Z2)^2-free", t2sq))
    j = cyclic_submodule(t2r, (0, 1, 0))
    jq, _ = quotient_module(t2r, j)
    s1, _, _ = direct_sum(t2r, jq)
    out.append(("T2(Z2)+quotient", s1))
    return out


def generate_corpus(seed: int, budget: int = 110, caps=DEFAULT_CAPS) -> Corpus:
    """Deterministic instance mix.  The two mandatory counterexample
    factories are always included; the rest is a seeded shuffle of the family
    list, truncated to the budget and filtered to sizes the per-instance
    analyses can afford: module order within the caps and |End| <= 1024.
    No predicate is decided here; a check that meets a cap reports SKIP."""
    families = _family_list(caps)
    mandatory = families[:2]
    rest = families[2:]
    rng = random.Random(seed)
    rng.shuffle(rest)
    chosen = list(mandatory) + rest
    instances = []
    for name, module in chosen:
        if len(instances) >= budget:
            break
        if module.order > caps.max_module_order:
            continue
        if hom_group(module, module).order > 1024:
            continue
        instances.append(Instance(name, module.ring, module, caps))
    return Corpus(seed=seed, instances=tuple(instances))


# ---------------------------------------------------------------------------
# statement checkers
#
# Each checker is a generator over (module, rng, caps), the rng seeded by the
# statement id and the instance name.  It yields one verdict per case it
# checks: None when the conclusion held, or the witness text when it failed.
# It returns the detail of a pass, if it has one.  ``_conclude`` runs it up
# to its first witness, so nothing after a witness runs, and counts the
# cases.  Checkers may raise CapExceeded.


class _LazyRandom:
    """A checker's seeded generator, built on its first draw: about half the
    checkers never draw, and seeding costs more than many checks do."""

    def __init__(self, key: str):
        self.key = key

    def __getattr__(self, name):  # reached only for the generator's methods
        if "rng" not in self.__dict__:
            self.rng = random.Random(zlib.crc32(self.key.encode()))
        return getattr(self.rng, name)


def _rng_for(sid, instance):
    return _LazyRandom(f"{sid}|{instance.name}")


def _sample(items, rng, k):
    return items if len(items) <= k else rng.sample(items, k)


def _sample_pairs(items, rng, k):
    """``_sample`` of the pairs (x, y) of ``items``, x slowest, drawn as indices
    into that list, which ``random.sample`` reads only by length and index."""
    n = len(items)
    return [(items[i // n], items[i % n]) for i in _sample(range(n * n), rng, k)]


def _nonzero_proper_fi(module, caps):
    return [
        s
        for s in fully_invariant_submodules(module, caps)
        if not s.is_zero() and not s.is_full()
    ]


def _fi_nil_submodules(module, caps):
    return [
        s
        for s in fully_invariant_submodules(module, caps)
        if not s.is_full() and is_nil_submodule(module, s, caps).is_nil
    ]


def _check_proddirsumm(m, rng, caps):
    lat = all_submodules(m, caps)
    for n_sub in _sample([s for s in lat if not s.is_zero()], rng, 5):
        emb = submodule_as_module(m, n_sub)
        sub_lat = all_submodules(emb.module, caps)
        summand = None  # decided by the first pair whose products differ
        for k_in, l_in in _sample_pairs(sub_lat, rng, 8):
            inner = product(emb.module, k_in, l_in)
            inner_in_m = image(emb.inclusion, inner)
            outer = product(m, image(emb.inclusion, k_in), image(emb.inclusion, l_in))
            if not outer.le(inner_in_m):
                yield f"{n_sub.describe()}:{k_in.describe()}*{l_in.describe()}"
            elif outer == inner_in_m:
                yield None
            else:
                if summand is None:
                    # |N|*|C| = |M| and N meet C = 0 give |N + C| = |M|, so N + C = M.
                    summand = any(n_sub.order * c.order == m.order
                                  and n_sub.intersect(c).is_zero() for c in lat)
                yield f"summand {n_sub.describe()} equality" if summand else None


def _product_entry(i, radices):
    """The i-th tuple of ``itertools.product(*map(range, radices))``, the
    last coordinate running fastest."""
    return tuple([i // prod(radices[j + 1:]) % d for j, d in enumerate(radices)])


def _end_elements_sample(module, rng, k):
    """``_sample(list(End(M).elements()), rng, k)`` without listing End: the
    draws are indices into that list, decoded into the Smith coordinates
    that ``elements`` gives each map."""
    end = hom_group(module, module)
    n, inv = end.order, end.group_invariants
    return [end.from_coords(_product_entry(i, inv)) for i in _sample(range(n), rng, k)]


def _check_fprod(m, rng, caps):
    lat = all_submodules(m, caps)
    for f in _end_elements_sample(m, rng, 6):
        for a, b in _sample_pairs(lat, rng, 8):
            ab = product(m, a, b)
            if image(f, ab) != product(m, a, image(f, b)):
                yield f"f({a.describe()}*{b.describe()})"
            elif not product(m, image(f, a), b).le(ab):
                yield f"f({a.describe()})*{b.describe()}"
            else:
                yield None


def _check_epiproduct(m, rng, caps):
    lat = all_submodules(m, caps)
    for k_sub in _sample(fully_invariant_submodules(m, caps), rng, 4):
        quot, proj = quotient_module(m, k_sub)
        for n_sub in _sample(lat, rng, 6):
            pn = image(proj, n_sub)
            same = image(proj, product(m, n_sub, n_sub)) == product(quot, pn, pn)
            yield None if same else f"K={k_sub.describe()} N={n_sub.describe()}"


def _check_factornil(m, rng, caps):
    lat = all_submodules(m, caps)
    nils = _down_set(m, lambda s: is_nil_submodule(m, s, caps).is_nil, caps)
    for n_sub in _sample(nils, rng, 3):
        for k_sub in _sample(lat, rng, 4):
            quot, proj = quotient_module(m, k_sub)
            nil = is_nil_submodule(quot, image(proj, n_sub), caps).is_nil
            yield None if nil else f"N={n_sub.describe()} K={k_sub.describe()}"


def _check_locnil_nil(m, rng, caps):
    for s in _sample(all_submodules(m, caps), rng, 8):
        loc = is_locally_nilpotent(m, s, caps)
        if loc and not is_nil_submodule(m, s, caps).is_nil:
            yield f"{s.describe()} locally nilpotent but not nil"
        elif nilpotency_index(m, s) is not None and not loc:
            yield f"{s.describe()} nilpotent but not locally nilpotent"
        else:
            yield None


def _check_fgnilp(m, rng, caps):
    for s in _sample(all_submodules(m, caps), rng, 8):
        if is_locally_nilpotent(m, s, caps):
            yield s.describe() if nilpotency_index(m, s) is None else None


def _down_set(m, holds, caps):
    """The submodules with ``holds``, in canonical order, for a property
    that passes to submodules, as being nil, nilpotent or locally nilpotent
    does.  They form a down-set, and every member of one is reached from
    zero through the covers inside it, so only those members and their
    covers are tested."""
    covers, zero = _lattice(m, caps)[1], Submodule.zero(m)
    members, seen, frontier = [], {zero}, [zero] if holds(zero) else []
    while frontier:
        cur = frontier.pop()
        members.append(cur)
        for nxt in covers[cur]:
            if nxt not in seen:
                seen.add(nxt)
                if holds(nxt):
                    frontier.append(nxt)
    return sorted(members, key=Submodule.sort_key)


def _sums_keep(m, holds, rng, caps):
    """Sampled pairs of submodules with ``holds``: their sums must have it."""
    for a, b in _sample_pairs(_down_set(m, holds, caps), rng, 10):
        yield None if holds(a.sum(b)) else f"{a.describe()}+{b.describe()}"


def _check_finsum_nilp(m, rng, caps):
    yield from _sums_keep(m, lambda s: nilpotency_index(m, s) is not None, rng, caps)


def _check_sumlocnil(m, rng, caps):
    yield from _sums_keep(m, lambda s: is_locally_nilpotent(m, s, caps), rng, caps)


def _check_lfiyrad(m, rng, caps):
    # three conclusions, the first two one case: a pass counts 3, a failure
    # of the quotient's radical 1
    radical = ell(m, caps)
    yield ("radical not fully invariant" if radical not in fully_invariant_submodules(m, caps)
           else "radical not locally nilpotent" if not is_locally_nilpotent(m, radical, caps)
           else None)
    quot, _ = quotient_module(m, radical)
    yield None if ell(quot, caps).is_zero() else "quotient has nonzero radical"
    yield None


def _check_lsp(m, rng, caps):
    if m.order == 1:
        return "zero module"
    radical = ell(m, caps)
    if radical.is_full():
        yield "radical is the whole module"
    elif radical not in fully_invariant_submodules(m, caps):
        yield f"radical {radical.describe()} is not fully invariant"
    else:
        ok, witness = is_semiprime_submodule(m, radical, caps)
        yield None if ok else witness.describe()


def _check_nesl(m, rng, caps):
    if m.order == 1:
        return "zero module"
    profile = prime_radical(m, caps)
    if profile.no_primes:
        yield "empty prime spectrum"
    elif profile.prime_radical != profile.ell:
        yield f"radical={profile.prime_radical.describe()} locnil={profile.ell.describe()}"
    else:
        yield None


def _check_prnilnet(m, rng, caps):
    # Spec(0) is empty and the radical of 0 is 0, which is nilpotent.
    if m.order == 1:
        return "zero module"
    profile = prime_radical(m, caps)
    if profile.no_primes:
        yield "empty prime spectrum"
    elif profile.nilpotency_of_radical is None:
        yield profile.prime_radical.describe()
    else:
        yield None
    return f"index={profile.nilpotency_of_radical}"


def _prime_power(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
        p += 1
    return (n, 1) if n > 1 else None


def _zpn_shape(module):
    ring = module.ring
    if ring.rank != 1:
        return None
    pk = _prime_power(ring.order)
    if pk is None:
        return None
    if module != regular_module(ring):
        return None
    return pk


def _check_zpn(m, rng, caps):
    pk = _zpn_shape(m)
    if pk is None:
        return "not a cyclic prime-power regular module"
    p, n = pk
    radical = ell(m, caps)
    if radical != cyclic_submodule(m, (p,)):
        yield radical.describe()
    else:
        idx = nilpotency_index(m, radical)
        yield None if idx == n else f"index={idx}"
    return f"p={p} n={n}"


def _quasi_projective_sums(m, caps):
    """(partner, M (+) partner, its injections) for the partners M and R
    whose sum with M is within the caps and quasi-projective.  End(M (+) N)
    has the order of Hom(M, M) x Hom(M, N) x Hom(N, M) x Hom(N, N), so the
    sum is built only once that order is within ``MAX_END_ELEMENTS``."""
    partners = [m]
    reg = regular_module(m.ring)
    if reg != m:
        partners.append(reg)
    for other in partners:
        if m.order * other.order > caps.max_module_order:
            continue
        pair = (m, other)
        if prod(hom_group(a, b).order for a in pair for b in pair) > MAX_END_ELEMENTS:
            continue
        total, injections, _ = direct_sum(m, other)
        if is_quasi_projective(total):
            yield other, total, injections


def _check_lsumas(m, rng, caps):
    for other, total, (ia, ib) in _quasi_projective_sums(m, caps):
        lhs = ell(total, caps)
        rhs = image(ia, ell(m, caps)).sum(image(ib, ell(other, caps)))
        yield None if lhs == rhs else f"{m.name}(+){other.name}"


def _check_semiprime_dirsum(m, rng, caps):
    if m.order == 1:
        return "zero module"
    for other, total, _ in _quasi_projective_sums(m, caps):
        agrees = _semiprime(total, caps) == (_semiprime(m, caps) and _semiprime(other, caps))
        yield None if agrees else f"{m.name}(+){other.name}"


def _semiprime(module, caps):
    return is_semiprime_submodule(module, Submodule.zero(module), caps)[0]


def _radical_nilpotent(module, caps):
    profile = prime_radical(module, caps)
    return profile.nilpotency_of_radical is not None and not profile.no_primes


def _free_rank2_agrees(ring, holds, caps):
    """Yields the case of the regular module, then, for an oracle-scale
    ring, whether ``holds`` agrees on the rank-2 free module; returns
    ``holds`` on the regular module."""
    reg = regular_module(ring)
    base = holds(reg, caps)
    yield None
    # rank-2 free modules only for oracle-scale rings; larger rings still
    # exercise the rank-1 direction
    if reg.order**2 <= 256:
        free2 = holds(direct_sum(reg, reg)[0], caps)
        yield None if free2 == base else f"rank2 free disagrees (ring {base}, free {free2})"
    return base


def _check_rsp(m, rng, caps):
    base = yield from _free_rank2_agrees(m.ring, _semiprime, caps)
    return f"semiprime={base}"


def _check_free_nilp(m, rng, caps):
    yield from _free_rank2_agrees(m.ring, _radical_nilpotent, caps)


def _element_subsets(module, rng, count, size):
    """``count`` draws of ``rng.sample(elements, rng.randint(1, size))``, the
    elements listed in ``itertools.product`` order, drawn as indices into
    that list, which ``random.sample`` reads only by length and index."""
    n, out = module.order, []
    for _ in range(count):
        picks = rng.sample(range(n), rng.randint(1, min(size, n)))
        out.append([_product_entry(i, module.inv_factors) for i in picks])
    return out


def _end_annihilator_identity(m, rng, witness):
    """Over sampled element subsets x, the End-annihilator A of x must equal
    the End-annihilator of the common kernel of A's generators; ``witness``
    is the failure's text."""
    for x in _element_subsets(m, rng, 4, 3):
        sub = end_left_annihilator(m, x)
        common = kernel_intersection(m, annihilator_maps(m, sub))
        yield None if end_left_annihilator(m, common.basis) == sub else witness


def _check_maccsacc(m, rng, caps):
    # End(M) is a finite ring, so its chain conditions hold with evidence
    if m.order > 1:
        yield from _end_annihilator_identity(m, rng, "dual annihilator identity failed")
    return f"|End|={hom_group(m, m).order}"


def _check_nilpsubnil(m, rng, caps):
    fis = fully_invariant_submodules(m, caps)
    for n_sub in _fi_nil_submodules(m, caps):
        for k_sub in [k for k in fis if k.lt(n_sub)]:  # none when N = 0
            quot, proj = quotient_module(m, k_sub)
            pushed = image(proj, n_sub)
            found = any(
                not s.is_zero()
                and s.le(pushed)
                and nilpotency_index(quot, s) is not None
                for s in all_submodules(quot, caps)
            )
            yield None if found else f"N={n_sub.describe()} K={k_sub.describe()}"


def _check_accnillocnil(m, rng, caps):
    for n_sub in _fi_nil_submodules(m, caps):
        yield None if is_locally_nilpotent(m, n_sub, caps) else n_sub.describe()


def _check_rannintersection(m, rng, caps):
    lat = all_submodules(m, caps)
    for _ in range(6):
        family = _sample(lat, rng, rng.randint(2, 3))
        meet = Submodule.full(m)
        total = Submodule.zero(m)
        for n_sub in family:
            meet = meet.intersect(ann_right(m, n_sub, caps))
            total = total.sum(n_sub)
        yield None if meet == ann_right(m, total, caps) else "+".join(s.describe() for s in family)


def _check_dccannr(m, rng, caps):
    seen = set()
    for n_sub in _sample(all_submodules(m, caps), rng, 8):
        rn = ann_right(m, n_sub, caps)
        seen.add(rn)
        yield None if ann_right(m, ann_left(m, rn), caps) == rn else n_sub.describe()
    return f"right-annihilator values={len(seen)}"


def _check_dccl(m, rng, caps):
    if m.order == 1:
        return "zero module"
    yield from _end_annihilator_identity(m, rng, "identity (1) failed")
    for _ in range(3):
        common = kernel_intersection(m, _end_elements_sample(m, rng, 2))
        gens = annihilator_maps(m, end_left_annihilator(m, common.basis))
        yield None if kernel_intersection(m, gens) == common else "identity (2) failed"


def _check_factorrightacc(m, rng, caps):
    sizes = []
    for n_sub in _sample(all_submodules(m, caps), rng, 4):
        quot, _ = quotient_module(m, ann_right(m, n_sub, caps))
        sizes.append(len(annihilator_lattice(quot, caps)))
        yield None
    return f"annihilator poset sizes={sizes}"


def _check_dccrn(m, rng, caps):
    l_values = set()
    r_values = set()
    for n_sub in _sample(_nonzero_proper_fi(m, caps) or all_submodules(m, caps), rng, 3):
        emb = submodule_as_module(m, n_sub)
        inner = all_submodules(emb.module, caps)
        for k_in in _sample(inner, rng, 6):
            k_sub = image(emb.inclusion, k_in)
            l_values.add(l_rel(m, n_sub, k_sub))
            r_values.add(r_rel(m, n_sub, k_sub, caps))
            yield None
    return f"l-values={len(l_values)} r-values={len(r_values)}"


def _check_rannncero(m, rng, caps):
    for n_sub in _fi_nil_submodules(m, caps):
        if not n_sub.is_zero():
            yield n_sub.describe() if r_rel(m, n_sub, n_sub, caps).is_zero() else None


def _check_subm(m, rng, caps):
    for n_sub in _fi_nil_submodules(m, caps):
        if n_sub.is_zero():
            continue
        if subm_sequence(m, n_sub, caps=caps)[0] != "hypothesis_violated":
            yield f"no nonzero slice on {n_sub.describe()}"
        else:
            chain, (kind, idx) = _left_powers(m, n_sub)
            vacuous = kind == "zero" and idx >= 2 and l_rel(m, n_sub, chain[idx - 2]).is_zero()
            yield f"vacuity reasoning failed on {n_sub.describe()}" if vacuous else None


def _check_accmoduloann(m, rng, caps):
    group = hom_group(m, m)
    gens = list(group.generators) + [Homomorphism.identity(m)]
    for g in _sample(group.generators, rng, 2):
        ideal_span = [compose(a, compose(g, b)) for a in gens for b in gens]
        quot, _ = quotient_module(m, kernel_intersection(m, ideal_span))
        annihilator_lattice(quot, caps)  # finite evidence for the chain condition
        yield None


def _check_fmret(m, rng, caps):
    for n_sub in _sample(all_submodules(m, caps), rng, 4):
        for killer in (ann_right(m, n_sub, caps), ann_left(m, n_sub)):
            quot, _ = quotient_module(m, killer)
            yield None if is_retractable(quot, caps) else f"N={n_sub.describe()}"


def _check_mgolsgol(m, rng, caps):
    er = end_ring(m)
    if er.as_ring.rank == 0:
        return "zero module"
    # End(M)^op has the order of End(M): its lattice meets the module-order cap
    right_udim = uniform_dimension(_opposite_end_regular(m), caps)
    yield None
    return f"right-udim={right_udim} |End|={er.as_ring.order}"


@memoized
def _opposite_end_regular(m):
    """End(M)^op as a module over itself, built once per M."""
    return regular_module(opposite_ring(end_ring(m).as_ring))


def _check_main(m, rng, caps):
    for n_sub in _fi_nil_submodules(m, caps):
        if nilpotency_index(m, n_sub) is None:
            yield n_sub.describe()
        elif not n_sub.is_zero():
            yield None


class StatementSpec(namedtuple("StatementSpec", "hypotheses description checker")):
    __slots__ = ()


# Only hypotheses a finite module can fail are listed.  The paper also
# assumes Goldie modules, noetherian modules and the ascending chain
# condition on annihilators, but every finite module has all three.
STATEMENTS: dict[str, StatementSpec] = {
    "LEM-PRODDIRSUMM": StatementSpec(
        (), "products computed in a smaller ambient contain the outer ones, "
        "with equality for direct summands", _check_proddirsumm),
    "LEM-FPROD": StatementSpec(
        ("quasi_projective",),
        "endomorphism images slide through the product", _check_fprod),
    "LEM-EPIPRODUCT": StatementSpec(
        ("quasi_projective",),
        "canonical projections preserve self-products modulo fully invariant "
        "submodules", _check_epiproduct),
    "LEM-FACTORNIL": StatementSpec(
        ("quasi_projective",),
        "images of nil submodules stay nil in quotients", _check_factornil),
    "REM-LOCNIL-NIL": StatementSpec(
        (), "locally nilpotent implies nil; nilpotent implies locally "
        "nilpotent", _check_locnil_nil),
    "LEM-FGNILP": StatementSpec(
        ("quasi_projective",),
        "finitely generated locally nilpotent submodules are nilpotent",
        _check_fgnilp),
    "REM-FINSUM-NILP": StatementSpec(
        ("quasi_projective",),
        "finite sums of nilpotent submodules are nilpotent", _check_finsum_nilp),
    "LEM-SUMLOCNIL": StatementSpec(
        ("quasi_projective",),
        "sums of locally nilpotent submodules are locally nilpotent",
        _check_sumlocnil),
    "PROP-LFIYRAD": StatementSpec(
        ("quasi_projective",),
        "the locally nilpotent radical is fully invariant and vanishes in its "
        "own quotient", _check_lfiyrad),
    "COR-LSP": StatementSpec(
        ("quasi_projective",),
        "the locally nilpotent radical is a semiprime submodule", _check_lsp),
    "COR-NESL": StatementSpec(
        ("quasi_projective",),
        "the prime radical equals the locally nilpotent radical", _check_nesl),
    "COR-PRNILNET": StatementSpec(
        ("quasi_projective",),
        "the prime radical of a noetherian module is nilpotent",
        _check_prnilnet),
    "EX-ZPN": StatementSpec(
        ("prime_power_cyclic_regular",),
        "the cyclic prime-power module has radical generated by p with "
        "nilpotency index n", _check_zpn),
    "LEM-LSUMAS": StatementSpec(
        ("quasi_projective",),
        "the radical of a direct sum is the sum of the radicals", _check_lsumas),
    "PROP-SEMIPRIME-DIRSUM": StatementSpec(
        ("quasi_projective",),
        "a direct sum is semiprime iff each summand is", _check_semiprime_dirsum),
    "COR-RSP": StatementSpec(
        (), "a ring is semiprime iff its free modules are", _check_rsp),
    "COR-FREE-NILP": StatementSpec(
        (), "the radical of a free module is nilpotent iff the ring's is",
        _check_free_nilp),
    "PROP-MACCSACC": StatementSpec(
        (),
        "the endomorphism ring inherits the chain condition on right "
        "annihilators", _check_maccsacc),
    "LEM-NILPSUBNIL": StatementSpec(
        ("quasi_projective",),
        "quotients of nested fully invariant nil submodules contain nonzero "
        "nilpotent submodules", _check_nilpsubnil),
    "PROP-ACCNILLOCNIL": StatementSpec(
        ("quasi_projective",),
        "fully invariant nil submodules are locally nilpotent",
        _check_accnillocnil),
    "LEM-RANNINTERSECTION": StatementSpec(
        (), "right annihilators turn sums into intersections",
        _check_rannintersection),
    "LEM-DCCANNR": StatementSpec(
        (),
        "right annihilators satisfy the triple-annihilator identity and the "
        "descending chain condition", _check_dccannr),
    "LEM-DCCL": StatementSpec(
        ("quasi_projective",),
        "kernel intersections and endomorphism annihilators determine each "
        "other", _check_dccl),
    "PROP-FACTORRIGHTACC": StatementSpec(
        ("quasi_projective",),
        "quotients by right annihilators keep the chain condition",
        _check_factorrightacc),
    "COR-DCCRN": StatementSpec(
        (),
        "relative annihilator families satisfy the dual chain conditions",
        _check_dccrn),
    "LEM-RANNNCERO": StatementSpec(
        ("quasi_projective",),
        "proper fully invariant nil submodules have nonzero relative right "
        "annihilator", _check_rannncero),
    "PROP-SUBM": StatementSpec(
        ("quasi_projective",),
        "the orthogonal sequence construction: every nonzero fully invariant "
        "nil submodule has a nonzero annihilator slice", _check_subm),
    "LEM-ACCMODULOANN": StatementSpec(
        ("quasi_projective",),
        "quotients by ideal kernel intersections keep the chain condition",
        _check_accmoduloann),
    "LEM-FMRET": StatementSpec(
        ("quasi_projective", "retractable"),
        "quotients by annihilators stay retractable", _check_fmret),
    "LEM-MGOLSGOL": StatementSpec(
        ("quasi_projective", "retractable"),
        "the endomorphism ring is right Goldie", _check_mgolsgol),
    "THM-MAIN": StatementSpec(
        ("quasi_projective", "retractable"),
        "fully invariant nil submodules are nilpotent", _check_main),
    "COR-PRIMENILGOLDIE": StatementSpec(
        ("quasi_projective", "retractable"),
        "the prime radical is nilpotent", _check_prnilnet),
}
STATEMENT_IDS = tuple(STATEMENTS)


_HYPOTHESES = {
    "quasi_projective": lambda instance: is_quasi_projective(instance.module),
    "retractable": lambda instance: is_retractable(instance.module, instance.caps),
    "prime_power_cyclic_regular": lambda instance: _zpn_shape(instance.module) is not None,
}


def _spec(sid: str) -> StatementSpec:
    if sid not in STATEMENTS:
        raise ValueError(f"unknown statement id {sid!r}")
    return STATEMENTS[sid]


def _unmet(spec: StatementSpec, instance: Instance) -> list[str]:
    return [h for h in spec.hypotheses if not _HYPOTHESES[h](instance)]


def _report(sid, instance, start, outcome, detail="", witness=None, exercised=0):
    """The report, whose ``elapsed`` runs from ``start``, the one clock its
    hypotheses and its checker share."""
    return VerificationReport(sid, instance.name, outcome, detail, witness, exercised,
                              time.perf_counter() - start)


def _gate(sid: str, instance: Instance, start):
    """(unmet hypotheses, None), or (None, a skipped report) when a cap
    stops their evaluation."""
    try:
        return _unmet(_spec(sid), instance), None
    except CapExceeded as exc:
        return None, _report(sid, instance, start, "skipped", str(exc))


def _conclude(sid: str, instance: Instance):
    """(cases, witness, detail): run the checker under the instance's caps up
    to its first witness, counting the cases it yielded before it.  A pass
    has no witness and the detail the checker returned; a CapExceeded
    propagates."""
    verdicts = STATEMENTS[sid].checker(instance.module, _rng_for(sid, instance), instance.caps)
    exercised = 0
    while True:
        try:
            witness = next(verdicts)
        except StopIteration as done:
            return exercised, None, done.value or ""
        if witness is not None:
            return exercised, witness, ""
        exercised += 1


def _evaluate(sid: str, instance: Instance, start) -> VerificationReport:
    """Run the conclusion checker: pass, fail with a witness, or skipped
    when a cap stops it."""
    try:
        exercised, witness, detail = _conclude(sid, instance)
        outcome = "pass" if witness is None else "fail"
    except CapExceeded as exc:
        exercised, witness, detail, outcome = 0, None, str(exc), "skipped"
    return _report(sid, instance, start, outcome, detail, witness, exercised)


def check_statement(sid: str, instance: Instance) -> VerificationReport:
    """Evaluate hypotheses first, then the conclusion checker, both under
    ``instance.caps``."""
    start = time.perf_counter()
    unmet, skipped = _gate(sid, instance, start)
    if skipped:
        return skipped
    if unmet:
        return _report(sid, instance, start, "hypothesis_not_met", unmet[0])
    return _evaluate(sid, instance, start)


class SuiteSummary(namedtuple("SuiteSummary", "reports counts failed")):
    __slots__ = ()

    def text(self) -> str:
        lines = [r.line() for r in self.reports]
        lines.append(
            "summary: pass={pass} fail={fail} hypothesis_not_met={hypothesis_not_met} "
            "skipped={skipped}".format(**self.counts)
        )
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return 1 if self.counts["fail"] else 0


def _run_instance(args):
    instance, ids = args
    return [check_statement(sid, instance) for sid in ids]


def run_suite(corpus: Corpus, ids=None, jobs: int = 1) -> SuiteSummary:
    """Run every requested statement on every instance; deterministic
    report order regardless of parallelism."""
    ids = list(ids) if ids else list(STATEMENT_IDS)
    for sid in ids:
        _spec(sid)
    if jobs > 1:
        import concurrent.futures

        # One task per instance, so a worker builds each instance's analyses once.
        tasks = [(instance, ids) for instance in corpus.instances]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = [r for block in pool.map(_run_instance, tasks) for r in block]
    else:
        reports = [check_statement(sid, instance)
                   for instance in corpus.instances for sid in ids]
    counts = {"pass": 0, "fail": 0, "hypothesis_not_met": 0, "skipped": 0}
    for r in reports:
        counts[r.outcome] += 1
    failed = tuple(r for r in reports if r.outcome == "fail")
    return SuiteSummary(reports=tuple(reports), counts=counts, failed=failed)


def search_counterexamples(sid: str, dropped_hypothesis: str | None, corpus: Corpus):
    """Re-evaluate a conclusion on instances violating exactly the dropped
    hypothesis; failures here are findings about necessity, not bugs.  An
    instance whose hypotheses a cap stops is reported skipped."""
    spec = _spec(sid)
    if dropped_hypothesis is None:
        return [check_statement(sid, inst) for inst in corpus.instances]
    if dropped_hypothesis not in spec.hypotheses:
        raise ValueError(
            f"{sid} does not hypothesize {dropped_hypothesis!r}; "
            f"choices: {spec.hypotheses}"
        )
    reports = []
    for instance in corpus.instances:
        start = time.perf_counter()
        unmet, skipped = _gate(sid, instance, start)
        if skipped or unmet == [dropped_hypothesis]:
            reports.append(skipped or _evaluate(sid, instance, start))
    return reports
