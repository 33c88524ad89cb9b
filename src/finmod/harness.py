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

import functools
import random
import time
import zlib
from collections import namedtuple
from math import prod

from .algebra import (
    _BlindToLast,
    cyclic_module,
    direct_sum,
    matrix_ring,
    opposite_ring,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from .config import DEFAULT_CAPS, CapExceeded
from .homspace import Homomorphism, compose, end_ring, hom_group, image
from .lattice import (
    PredicateProfile,
    Submodule,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    is_goldie,
    is_quasi_projective,
    is_retractable,
    submodule_as_module,
    uniform_dimension,
)
from .oracle import BudgetExceeded
from .product import (
    is_locally_nilpotent,
    is_nil_submodule,
    nilpotency_index,
    power_trace,
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
    """A corpus entry.  Its predicate profile is computed when first read,
    so only instances whose hypotheses are checked pay for one, and a
    CapExceeded it raises reaches the check that read it."""

    @functools.cached_property
    def profile(self) -> PredicateProfile:
        return is_goldie(self.module, self.caps)


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
        out.append((f"T2(Z2)-ideal{idx}", submodule_as_module(sub).module))
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
# Each checker takes (module, rng, caps), the rng seeded by the statement id
# and the instance name, and returns (exercised_count, witness_or_None,
# detail).  A witness means the conclusion failed.  Checkers may raise
# CapExceeded/BudgetExceeded.


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
    exercised = 0
    for n_sub in _sample([s for s in lat if not s.is_zero()], rng, 5):
        emb = submodule_as_module(n_sub)
        sub_lat = all_submodules(emb.module, caps)
        # |N|*|C| = |M| and N meet C = 0 give |N + C| = |M|, so N + C = M.
        summand = any(
            n_sub.order * c.order == m.order and n_sub.intersect(c).is_zero() for c in lat
        )
        for k_in, l_in in _sample(
            [(a, b) for a in sub_lat for b in sub_lat], rng, 8
        ):
            inner = product(emb.module, k_in, l_in)
            inner_in_m = image(emb.inclusion, inner)
            outer = product(m, image(emb.inclusion, k_in), image(emb.inclusion, l_in))
            if not outer.le(inner_in_m):
                return exercised, f"{n_sub.describe()}:{k_in.describe()}*{l_in.describe()}", ""
            if summand and outer != inner_in_m:
                return exercised, f"summand {n_sub.describe()} equality", ""
            exercised += 1
    return exercised, None, ""


def _end_elements_sample(module, rng, k):
    """``_sample(list(End(M).elements()), rng, k)`` without listing End: the
    draws are indices into that list, decoded into the Smith coordinates
    that ``elements`` gives each map, the last coordinate running fastest."""
    end = hom_group(module, module)
    n, inv = end.order, end.group_invariants
    picks = range(n) if n <= k else rng.sample(range(n), k)
    return [end.from_coords([i // prod(inv[j + 1:]) % d for j, d in enumerate(inv)]) for i in picks]


def _check_fprod(m, rng, caps):
    lat = all_submodules(m, caps)
    endos = _end_elements_sample(m, rng, 6)
    pairs = [(x, y) for x in lat for y in lat]
    exercised = 0
    for f in endos:
        for a, b in _sample(pairs, rng, 8):
            ab = product(m, a, b)
            f_ab = image(f, ab)
            f_b = image(f, b)
            if f_ab != product(m, a, f_b):
                return exercised, f"f({a.describe()}*{b.describe()})", ""
            f_a = image(f, a)
            if not product(m, f_a, b).le(ab):
                return exercised, f"f({a.describe()})*{b.describe()}", ""
            exercised += 1
    return exercised, None, ""


def _check_epiproduct(m, rng, caps):
    lat = all_submodules(m, caps)
    exercised = 0
    for k_sub in _sample(fully_invariant_submodules(m, caps), rng, 4):
        quot, proj = quotient_module(m, k_sub)
        for n_sub in _sample(lat, rng, 6):
            pn = image(proj, n_sub)
            lhs = image(proj, product(m, n_sub, n_sub))
            if lhs != product(quot, pn, pn):
                return exercised, f"K={k_sub.describe()} N={n_sub.describe()}", ""
            exercised += 1
    return exercised, None, ""


def _check_factornil(m, rng, caps):
    lat = all_submodules(m, caps)
    nils = [s for s in lat if is_nil_submodule(m, s, caps).is_nil]
    exercised = 0
    for n_sub in _sample(nils, rng, 3):
        for k_sub in _sample(lat, rng, 4):
            quot, proj = quotient_module(m, k_sub)
            pushed = image(proj, n_sub)
            if not is_nil_submodule(quot, pushed, caps).is_nil:
                return exercised, f"N={n_sub.describe()} K={k_sub.describe()}", ""
            exercised += 1
    return exercised, None, ""


def _check_locnil_nil(m, rng, caps):
    exercised = 0
    for s in _sample(all_submodules(m, caps), rng, 8):
        loc = is_locally_nilpotent(m, s, caps=caps)
        if loc and not is_nil_submodule(m, s, caps).is_nil:
            return exercised, f"{s.describe()} locally nilpotent but not nil", ""
        if nilpotency_index(m, s) is not None and not loc:
            return exercised, f"{s.describe()} nilpotent but not locally nilpotent", ""
        exercised += 1
    return exercised, None, ""


def _check_fgnilp(m, rng, caps):
    exercised = 0
    for s in _sample(all_submodules(m, caps), rng, 8):
        if is_locally_nilpotent(m, s, caps=caps, force_definitional=True):
            if nilpotency_index(m, s) is None:
                return exercised, s.describe(), ""
            exercised += 1
    return exercised, None, ""


def _sums_keep(m, holds, rng, caps):
    """Sampled pairs of submodules with ``holds``: their sums must have it."""
    members = [s for s in all_submodules(m, caps) if holds(s)]
    exercised = 0
    for a, b in _sample([(x, y) for x in members for y in members], rng, 10):
        if not holds(a.sum(b)):
            return exercised, f"{a.describe()}+{b.describe()}", ""
        exercised += 1
    return exercised, None, ""


def _check_finsum_nilp(m, rng, caps):
    return _sums_keep(m, lambda s: nilpotency_index(m, s) is not None, rng, caps)


def _check_sumlocnil(m, rng, caps):
    return _sums_keep(m, lambda s: is_locally_nilpotent(m, s, caps=caps), rng, caps)


def _check_lfiyrad(m, rng, caps):
    radical = ell(m, caps)
    if radical not in fully_invariant_submodules(m, caps):
        return 0, "radical not fully invariant", ""
    if not is_locally_nilpotent(m, radical, caps=caps):
        return 0, "radical not locally nilpotent", ""
    quot, _ = quotient_module(m, radical)
    if not ell(quot, caps).is_zero():
        return 1, "quotient has nonzero radical", ""
    return 3, None, ""


def _check_lsp(m, rng, caps):
    if m.order == 1:
        return 0, None, "zero module"
    radical = ell(m, caps)
    if radical.is_full():
        return 0, "radical is the whole module", ""
    ok, witness = is_semiprime_submodule(m, radical, caps)
    if not ok:
        return 0, witness.describe(), ""
    return 1, None, ""


def _check_nesl(m, rng, caps):
    if m.order == 1:
        return 0, None, "zero module"
    profile = prime_radical(m, caps)
    if profile.no_primes:
        return 0, "empty prime spectrum", ""
    if profile.prime_radical != profile.ell:
        return 0, (
            f"radical={profile.prime_radical.describe()} "
            f"locnil={profile.ell.describe()}"
        ), ""
    return 1, None, ""


def _check_prnilnet(m, rng, caps):
    # Spec(0) is empty and the radical of 0 is 0, which is nilpotent.
    if m.order == 1:
        return 0, None, "zero module"
    profile = prime_radical(m, caps)
    if profile.no_primes:
        return 0, "empty prime spectrum", ""
    if profile.nilpotency_of_radical is None:
        return 0, profile.prime_radical.describe(), ""
    return 1, None, f"index={profile.nilpotency_of_radical}"


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
        return 0, None, "not a cyclic prime-power regular module"
    p, n = pk
    radical = ell(m, caps)
    expected = cyclic_submodule(m, (p,))
    if radical != expected:
        return 0, radical.describe(), ""
    idx = nilpotency_index(m, radical)
    if idx != n:
        return 0, f"index={idx}", ""
    return 1, None, f"p={p} n={n}"


def _quasi_projective_sums(m, caps):
    """(partner, M (+) partner, its injections) for the partners M and R
    whose sum with M is within the caps and quasi-projective.  End(M (+) N)
    has the order of Hom(M, M) x Hom(M, N) x Hom(N, M) x Hom(N, N), so the
    sum is built only once that order is within the caps."""
    partners = [m]
    reg = regular_module(m.ring)
    if reg != m:
        partners.append(reg)
    for other in partners:
        if m.order * other.order > caps.max_module_order:
            continue
        pair = (m, other)
        if prod(hom_group(a, b).order for a in pair for b in pair) > caps.max_hom_elements:
            continue
        total, injections, _ = direct_sum(m, other)
        if is_quasi_projective(total, caps):
            yield other, total, injections


def _check_lsumas(m, rng, caps):
    exercised = 0
    for other, total, (ia, ib) in _quasi_projective_sums(m, caps):
        lhs = ell(total, caps)
        rhs = image(ia, ell(m, caps)).sum(image(ib, ell(other, caps)))
        if lhs != rhs:
            return exercised, f"{m.name}(+){other.name}", ""
        exercised += 1
    return exercised, None, ""


def _check_semiprime_dirsum(m, rng, caps):
    if m.order == 1:
        return 0, None, "zero module"
    exercised = 0
    for other, total, _ in _quasi_projective_sums(m, caps):
        if _semiprime(total, caps) != (_semiprime(m, caps) and _semiprime(other, caps)):
            return exercised, f"{m.name}(+){other.name}", ""
        exercised += 1
    return exercised, None, ""


def _semiprime(module, caps):
    return is_semiprime_submodule(module, Submodule.zero(module), caps)[0]


def _radical_nilpotent(module, caps):
    profile = prime_radical(module, caps)
    return profile.nilpotency_of_radical is not None and not profile.no_primes


def _free_rank2_agrees(ring, holds, caps):
    """(exercised, witness, value on the ring) comparing ``holds`` on the
    regular module and on the rank-2 free module."""
    reg = regular_module(ring)
    base = holds(reg, caps)
    # rank-2 free modules only for oracle-scale rings; larger rings still
    # exercise the rank-1 direction
    if reg.order**2 > 256:
        return 1, None, base
    free2 = holds(direct_sum(reg, reg)[0], caps)
    if free2 != base:
        return 1, f"rank2 free disagrees (ring {base}, free {free2})", base
    return 2, None, base


def _check_rsp(m, rng, caps):
    exercised, witness, base = _free_rank2_agrees(m.ring, _semiprime, caps)
    return exercised, witness, "" if witness else f"semiprime={base}"


def _check_free_nilp(m, rng, caps):
    exercised, witness, _ = _free_rank2_agrees(m.ring, _radical_nilpotent, caps)
    return exercised, witness, ""


def _element_subsets(module, rng, count, size):
    elems = [x.coeffs for x in module.elements()]
    out = []
    for _ in range(count):
        k = min(size, len(elems))
        out.append(rng.sample(elems, rng.randint(1, k)))
    return out


def _end_annihilator_identity(m, rng):
    """(exercised, held) over sampled element subsets x: the End-annihilator
    A of x must equal the End-annihilator of the common kernel of A's
    generators."""
    exercised = 0
    for x in _element_subsets(m, rng, 4, 3):
        sub = end_left_annihilator(m, x)
        if end_left_annihilator(m, kernel_intersection(m, annihilator_maps(m, sub)).basis) != sub:
            return exercised, False
        exercised += 1
    return exercised, True


def _check_maccsacc(m, rng, caps):
    er = end_ring(m, caps)  # finite ring: chain conditions hold with evidence
    exercised, held = _end_annihilator_identity(m, rng) if m.order > 1 else (0, True)
    if not held:
        return exercised, "dual annihilator identity failed", ""
    return exercised, None, f"|End|={er.as_ring.order}"


def _check_nilpsubnil(m, rng, caps):
    fis = fully_invariant_submodules(m, caps)
    nil_fis = _fi_nil_submodules(m, caps)
    exercised = 0
    for n_sub in nil_fis:
        if n_sub.is_zero():
            continue
        for k_sub in fis:
            if not (k_sub.lt(n_sub)):
                continue
            quot, proj = quotient_module(m, k_sub)
            pushed = image(proj, n_sub)
            found = any(
                not s.is_zero()
                and s.le(pushed)
                and nilpotency_index(quot, s) is not None
                for s in all_submodules(quot, caps)
            )
            if not found:
                return exercised, f"N={n_sub.describe()} K={k_sub.describe()}", ""
            exercised += 1
    return exercised, None, ""


def _check_accnillocnil(m, rng, caps):
    exercised = 0
    for n_sub in _fi_nil_submodules(m, caps):
        if not is_locally_nilpotent(m, n_sub, caps=caps, force_definitional=True):
            return exercised, n_sub.describe(), ""
        exercised += 1
    return exercised, None, ""


def _check_rannintersection(m, rng, caps):
    lat = all_submodules(m, caps)
    exercised = 0
    for _ in range(6):
        family = _sample(lat, rng, rng.randint(2, 3))
        meet = Submodule.full(m)
        total = Submodule.zero(m)
        for n_sub in family:
            meet = meet.intersect(ann_right(m, n_sub, caps))
            total = total.sum(n_sub)
        if meet != ann_right(m, total, caps):
            return exercised, "+".join(s.describe() for s in family), ""
        exercised += 1
    return exercised, None, ""


def _check_dccannr(m, rng, caps):
    lat = all_submodules(m, caps)
    exercised = 0
    seen = set()
    for n_sub in _sample(lat, rng, 8):
        rn = ann_right(m, n_sub, caps)
        seen.add(rn)
        if ann_right(m, ann_left(m, rn), caps) != rn:
            return exercised, n_sub.describe(), ""
        exercised += 1
    return exercised, None, f"right-annihilator values={len(seen)}"


def _check_dccl(m, rng, caps):
    if m.order == 1:
        return 0, None, "zero module"
    exercised, held = _end_annihilator_identity(m, rng)
    if not held:
        return exercised, "identity (1) failed", ""
    for _ in range(3):
        common = kernel_intersection(m, _end_elements_sample(m, rng, 2))
        gens = annihilator_maps(m, end_left_annihilator(m, common.basis))
        if kernel_intersection(m, gens) != common:
            return exercised, "identity (2) failed", ""
        exercised += 1
    return exercised, None, ""


def _check_factorrightacc(m, rng, caps):
    lat = all_submodules(m, caps)
    exercised = 0
    sizes = []
    for n_sub in _sample(lat, rng, 4):
        quot, _ = quotient_module(m, ann_right(m, n_sub, caps))
        sizes.append(len(annihilator_lattice(quot, caps)))
        exercised += 1
    return exercised, None, f"annihilator poset sizes={sizes}"


def _check_dccrn(m, rng, caps):
    exercised = 0
    l_values = set()
    r_values = set()
    for n_sub in _sample(_nonzero_proper_fi(m, caps) or all_submodules(m, caps), rng, 3):
        emb = submodule_as_module(n_sub)
        inner = all_submodules(emb.module, caps)
        for k_in in _sample(inner, rng, 6):
            k_sub = image(emb.inclusion, k_in)
            l_values.add(l_rel(m, n_sub, k_sub))
            r_values.add(r_rel(m, n_sub, k_sub, caps))
            exercised += 1
    return exercised, None, f"l-values={len(l_values)} r-values={len(r_values)}"


def _check_rannncero(m, rng, caps):
    exercised = 0
    for n_sub in _fi_nil_submodules(m, caps):
        if n_sub.is_zero():
            continue
        if r_rel(m, n_sub, n_sub, caps).is_zero():
            return exercised, n_sub.describe(), ""
        exercised += 1
    return exercised, None, ""


def _check_subm(m, rng, caps):
    exercised = 0
    zero_out = subm_sequence(m, Submodule.zero(m), caps=caps)
    if zero_out.diagnostics != ("complete", 0):
        return exercised, "zero submodule contract", ""
    for n_sub in _fi_nil_submodules(m, caps):
        if n_sub.is_zero():
            continue
        out = subm_sequence(m, n_sub, caps=caps)
        if out.diagnostics[0] != "hypothesis_violated":
            return exercised, f"sequence ran on {n_sub.describe()}", ""
        idx = nilpotency_index(m, n_sub)
        if idx is not None and idx >= 2:
            trace = power_trace(m, n_sub)
            penult = trace.chain[idx - 2]
            if l_rel(m, n_sub, penult).is_zero():
                return exercised, f"vacuity reasoning failed on {n_sub.describe()}", ""
        exercised += 1
    return exercised, None, ""


def _check_accmoduloann(m, rng, caps):
    group = hom_group(m, m)
    exercised = 0
    gens = list(group.generators) + [Homomorphism.identity(m)]
    seeds = _sample(group.generators, rng, 2)
    for g in seeds:
        ideal_span = [compose(a, compose(g, b)) for a in gens for b in gens]
        n_sub = kernel_intersection(m, ideal_span)
        quot, _ = quotient_module(m, n_sub)
        annihilator_lattice(quot, caps)  # finite evidence for the chain condition
        exercised += 1
    return exercised, None, ""


def _check_fmret(m, rng, caps):
    lat = all_submodules(m, caps)
    exercised = 0
    for n_sub in _sample(lat, rng, 4):
        for killer in (ann_right(m, n_sub, caps), ann_left(m, n_sub)):
            quot, _ = quotient_module(m, killer)
            if not is_retractable(quot, caps):
                return exercised, f"N={n_sub.describe()}", ""
            exercised += 1
    return exercised, None, ""


def _check_mgolsgol(m, rng, caps):
    er = end_ring(m, caps)
    if er.as_ring.rank == 0:
        return 0, None, "zero module"
    op_regular = regular_module(opposite_ring(er.as_ring))
    if op_regular.order > caps.max_module_order:
        raise CapExceeded("opposite regular module", op_regular.order, caps.max_module_order)
    right_udim = uniform_dimension(op_regular, caps)
    return 1, None, f"right-udim={right_udim} |End|={er.as_ring.order}"


def _check_main(m, rng, caps):
    exercised = 0
    for n_sub in _fi_nil_submodules(m, caps):
        if nilpotency_index(m, n_sub) is None:
            return exercised, n_sub.describe(), ""
        if not n_sub.is_zero():
            exercised += 1
    return exercised, None, ""


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
        "the orthogonal sequence construction: hypothesis vacuity on finite "
        "instances plus per-step contracts", _check_subm),
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
    "quasi_projective": lambda instance: instance.profile.is_quasi_projective,
    "retractable": lambda instance: instance.profile.is_retractable,
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
    """(unmet hypotheses, None), or (None, a skipped report) when a cap or
    budget stops their evaluation."""
    try:
        return _unmet(_spec(sid), instance), None
    except (CapExceeded, BudgetExceeded) as exc:
        return None, _report(sid, instance, start, "skipped", str(exc))


def _evaluate(sid: str, instance: Instance, caps, start) -> VerificationReport:
    """Run the conclusion checker: pass, fail with a witness, or skipped
    when a cap or budget stops it."""
    try:
        checker = STATEMENTS[sid].checker
        exercised, witness, detail = checker(instance.module, _rng_for(sid, instance), caps)
        outcome = "pass" if witness is None else "fail"
    except (CapExceeded, BudgetExceeded) as exc:
        exercised, witness, detail, outcome = 0, None, str(exc), "skipped"
    return _report(sid, instance, start, outcome, detail, witness, exercised)


def check_statement(sid: str, instance: Instance, caps=DEFAULT_CAPS) -> VerificationReport:
    """Evaluate hypotheses first, then the conclusion checker."""
    start = time.perf_counter()
    unmet, skipped = _gate(sid, instance, start)
    if skipped:
        return skipped
    if unmet:
        return _report(sid, instance, start, "hypothesis_not_met", unmet[0])
    return _evaluate(sid, instance, caps, start)


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
    instance, ids, caps = args
    return [check_statement(sid, instance, caps) for sid in ids]


def run_suite(corpus: Corpus, ids=None, caps=DEFAULT_CAPS, jobs: int = 1) -> SuiteSummary:
    """Run every requested statement on every instance; deterministic
    report order regardless of parallelism."""
    ids = list(ids) if ids else list(STATEMENT_IDS)
    for sid in ids:
        _spec(sid)
    if jobs > 1:
        import concurrent.futures

        # One task per instance, so a worker builds each instance's analyses once.
        tasks = [(instance, ids, caps) for instance in corpus.instances]
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = [r for block in pool.map(_run_instance, tasks) for r in block]
    else:
        reports = [check_statement(sid, instance, caps)
                   for instance in corpus.instances for sid in ids]
    counts = {"pass": 0, "fail": 0, "hypothesis_not_met": 0, "skipped": 0}
    for r in reports:
        counts[r.outcome] += 1
    failed = tuple(r for r in reports if r.outcome == "fail")
    return SuiteSummary(reports=tuple(reports), counts=counts, failed=failed)


def search_counterexamples(
    sid: str, dropped_hypothesis: str | None, corpus: Corpus, caps=DEFAULT_CAPS
):
    """Re-evaluate a conclusion on instances violating exactly the dropped
    hypothesis; failures here are findings about necessity, not bugs.  An
    instance whose hypotheses a cap stops is reported skipped."""
    spec = _spec(sid)
    if dropped_hypothesis is None:
        return [check_statement(sid, inst, caps) for inst in corpus.instances]
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
            reports.append(skipped or _evaluate(sid, instance, caps, start))
    return reports
