"""Annihilator operators, the locally nilpotent radical, prime and semiprime
submodules, the prime radical, and the orthogonal-sequence construction for
nil submodules.

The locally nilpotent radical is computed as the sum of the nilpotent cyclic
submodules: every locally nilpotent submodule is a sum of nilpotent cyclics,
and each nilpotent cyclic is itself locally nilpotent, so the two sums agree.
The definitional computation lives in the oracle module and is cross-checked
in the tests.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import mul

from .config import DEFAULT_CAPS, CapExceeded
from .homspace import hom_group
from .intlat import solve_homogeneous_congruences
from .lattice import (
    Submodule,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    is_quasi_projective,
)
from .product import (
    is_locally_nilpotent, is_nil_submodule, maps_into, nilpotency_index, power_trace, product,
)


def ann_left(module, sub: Submodule) -> Submodule:
    """Intersection of the kernels of all maps from the module into ``sub``.

    The kernels of a generating set suffice: the kernel of a sum of maps
    contains the intersection of their kernels.  The inclusion of ``sub`` is
    injective, so the maps of ``maps_into`` have the same kernels.
    """
    if sub.module is not module and sub.module != module:
        raise ValueError("submodule of a different module")
    return kernel_intersection(module, maps_into(module, sub))


def ann_right(module, sub: Submodule, caps=DEFAULT_CAPS) -> Submodule:
    """Sum of all submodules K with sub*K = 0.

    Monotonicity of the product in its second argument makes the sum over
    the cyclic K equal to the full definitional sum.  And sub*C = 0 iff
    every map from the module into C kills sub, that is iff sub <= ann_left(C),
    so no product is formed: the cyclics C whose memoized left annihilator
    holds ``sub`` are summed in one HNF.  Answers are memoized by (sub, caps).
    """
    if sub.module is not module and sub.module != module:
        raise ValueError("submodule of a different module")
    memo = module.analysis
    hit = memo.right_annihilators.get((sub, caps))
    if hit is None:
        pairs = memo.cyclic_annihilators.get(caps)
        if pairs is None:
            cyclics = distinct_cyclic_submodules(module, caps)
            pairs = memo.cyclic_annihilators[caps] = tuple((c, ann_left(module, c)) for c in cyclics)
        rows = [r for c, a in pairs if sub.le(a) for r in c.basis]
        hit = memo.right_annihilators[sub, caps] = Submodule.from_subgroup_rows(module, rows)
    return hit


def l_rel(module, outer: Submodule, inner: Submodule) -> Submodule:
    """ann(inner) intersected with outer; requires inner <= outer."""
    if not inner.le(outer):
        raise ValueError("inner submodule must lie inside the outer one")
    return ann_left(module, inner).intersect(outer)


def r_rel(module, outer: Submodule, inner: Submodule, caps=DEFAULT_CAPS) -> Submodule:
    """Right annihilator of inner intersected with outer; inner <= outer."""
    if not inner.le(outer):
        raise ValueError("inner submodule must lie inside the outer one")
    return ann_right(module, inner, caps).intersect(outer)


def ell(module, caps=DEFAULT_CAPS) -> Submodule:
    """The largest locally nilpotent submodule: the sum of all nilpotent
    cyclic submodules."""
    memo = module.analysis.ell
    hit = memo.get(caps)
    if hit is not None:
        return hit
    # Powers are monotone in the base, so a cyclic over one that is not
    # nilpotent is not nilpotent either; one inside the sum adds nothing.
    out = Submodule.zero(module)
    not_nilpotent = []
    for c in sorted(distinct_cyclic_submodules(module, caps), key=Submodule.sort_key):
        if c.le(out) or any(n.le(c) for n in not_nilpotent):
            continue
        if nilpotency_index(module, c) is None:
            not_nilpotent.append(c)
        else:
            out = out.sum(c)
    memo[caps] = out
    return out


def _minimal_outside(module, p: Submodule, caps):
    """The minimal fully invariant members not below ``p``, in canonical
    order.  That order lists a member after every member below it, so a
    member is minimal when no member kept before it lies below it."""
    fis = fully_invariant_submodules(module, caps)
    if p not in fis:
        raise ValueError("candidate is not fully invariant")
    if p.is_full():
        raise ValueError("prime and semiprime candidates must be proper")
    minimal = []
    for n in fis:
        if not n.le(p) and not any(k.le(n) for k in minimal):
            minimal.append(n)
    return minimal


def is_prime_submodule(module, p: Submodule, caps=DEFAULT_CAPS):
    """Whether N*K <= P forces N <= P or K <= P over all fully invariant
    N, K; returns (True, None) or (False, (n, k)) with a witness pair.

    The product is monotone in both factors, so a pair outside ``p`` with
    N*K <= P exists exactly when one exists among the minimal members
    outside ``p``: only those are multiplied, and the witness is the first
    such pair of minimal members."""
    minimal = _minimal_outside(module, p, caps)
    for n_sub in minimal:
        for k_sub in minimal:
            if product(module, n_sub, k_sub).le(p):
                return False, (n_sub, k_sub)
    return True, None


def is_semiprime_submodule(module, p: Submodule, caps=DEFAULT_CAPS):
    """Like primeness but only over diagonal pairs N*N <= P; by the same
    monotonicity only the minimal members outside ``p`` are squared, and the
    witness is the first of them whose square lies in ``p``.  Verdicts are
    memoized by (p, caps)."""
    memo, key = module.analysis.semiprime, (p, caps)
    hit = memo.get(key)
    if hit is None:
        witness = next((n for n in _minimal_outside(module, p, caps)
                        if product(module, n, n).le(p)), None)
        hit = memo[key] = (witness is None, witness)
    return hit


class RadicalProfile(namedtuple("RadicalProfile", "module caps prime_radical primes "
                                "nilpotency_of_radical no_primes", defaults=(False,))):
    """Radical data for one module, under the caps it was computed with.

    ``primes``, their intersection ``prime_radical``, its nilpotency index
    and ``no_primes`` are computed with the profile.  ``no_primes`` flags
    the (hypothesis-violating) case of an empty prime spectrum, in which the
    radical intersection defaults to the module itself.

    ``ell``, ``semiprimes`` and ``ell_locally_nilpotent`` are computed on
    first read.  ``ell_locally_nilpotent`` reports, for ambients that are
    not quasi-projective, whether ``ell`` is itself locally nilpotent (None
    otherwise, or when the test exceeds a cap); the closure-under-sums
    argument needs projectivity, so this is diagnostic rather than
    guaranteed.  They are stored in the instance dict.
    """

    @functools.cached_property
    def ell(self) -> Submodule:
        return ell(self.module, self.caps)

    @functools.cached_property
    def semiprimes(self) -> tuple[Submodule, ...]:
        fis = fully_invariant_submodules(self.module, self.caps)
        return tuple(
            p for p in fis
            if not p.is_full() and is_semiprime_submodule(self.module, p, self.caps)[0]
        )

    @functools.cached_property
    def ell_locally_nilpotent(self) -> bool | None:
        if is_quasi_projective(self.module, self.caps):
            return None
        try:
            return is_locally_nilpotent(self.module, self.ell, caps=self.caps)
        except CapExceeded:
            return None


def prime_radical(module, caps=DEFAULT_CAPS) -> RadicalProfile:
    """Intersection of all prime submodules, with its radical profile; the
    profile's other fields are computed when first read."""
    memo = module.analysis.prime_radical
    hit = memo.get(caps)
    if hit is not None:
        return hit
    fis = fully_invariant_submodules(module, caps)
    primes = tuple(p for p in fis if not p.is_full() and is_prime_submodule(module, p, caps)[0])
    radical = functools.reduce(Submodule.intersect, primes) if primes else Submodule.full(module)
    profile = memo[caps] = RadicalProfile(
        module=module,
        caps=caps,
        prime_radical=radical,
        primes=primes,
        nilpotency_of_radical=nilpotency_index(module, radical),
        no_primes=not primes,
    )
    return profile


class SubmSequence(namedtuple("SubmSequence", "modules_a diagnostics")):
    """Outcome of the orthogonal-sequence construction: the submodules A_i
    built, and its diagnostics.

    diagnostics is ("complete", k), ("hypothesis_violated", j, witness) with
    witness the nonzero left annihilator slice (or, when j = 0, a cyclic
    submodule of N that is not nilpotent), or ("cap_reached", _MAX_STEPS).
    """

    __slots__ = ()


# Most steps the orthogonal-sequence construction takes.
_MAX_STEPS = 8


def subm_sequence(module, sub: Submodule, caps=DEFAULT_CAPS) -> SubmSequence:
    """Attempt the inductive construction A_1 = r_N(N),
    A_{i+1} = r_N(A_1 * ... * A_i * N) for a fully invariant nil submodule
    with all left annihilator slices l_N(N^j) zero.

    Hypotheses are checked first; on finite modules with a nonzero nil
    submodule some slice is always nonzero, so the construction is expected
    to report a hypothesis violation rather than run.
    """
    fis = fully_invariant_submodules(module, caps)
    if sub not in fis:
        raise ValueError("sequence construction needs a fully invariant submodule")
    if sub.is_zero():
        return SubmSequence(modules_a=(), diagnostics=("complete", 0))
    verdict = is_nil_submodule(module, sub, caps)
    if not verdict.is_nil:
        return SubmSequence(
            modules_a=(), diagnostics=("hypothesis_violated", 0, verdict.witness)
        )
    trace = power_trace(module, sub)
    for j, pow_j in enumerate(trace.chain, start=1):
        slice_j = l_rel(module, sub, pow_j)
        if not slice_j.is_zero():
            return SubmSequence(
                modules_a=(), diagnostics=("hypothesis_violated", j, slice_j)
            )
    sequence = []
    prefix = None  # A_1 * ... * A_i
    for _step in range(_MAX_STEPS):
        if prefix is None:
            nxt = r_rel(module, sub, sub, caps)
        else:
            nxt = r_rel(module, sub, product(module, prefix, sub), caps)
        sequence.append(nxt)
        prefix = nxt if prefix is None else product(module, prefix, nxt)
        if prefix.is_zero():
            raise ArithmeticError(
                "orthogonality contract failed: prefix product vanished"
            )
        for j, a_j in enumerate(sequence):
            if not product(module, prefix, a_j).is_zero():
                raise ArithmeticError(
                    f"orthogonality contract failed at pair ({len(sequence)},{j + 1})"
                )
    return SubmSequence(modules_a=tuple(sequence), diagnostics=("cap_reached", _MAX_STEPS))


def end_left_annihilator(module, vectors):
    """Ann_End(X), the endomorphisms vanishing on the elements X, as a
    subgroup in the Smith coordinates of End(M).

    With g_i the Smith generators of End(M), the map sum_i c_i g_i kills x
    iff sum_i c_i g_i(x) = 0 in M: one congruence per element x and
    coordinate k of M, over columns of moduli the invariants of End(M).
    ``annihilator_maps`` turns the subgroup into maps; the common kernel of
    those is the closure Ann_M(Ann_End(X))."""
    end = hom_group(module, module).subgroup
    blocks = _end_blocks(module)
    s, e = module.ngens, module.inv_factors
    rows = [[sum(map(mul, g[k], x)) % e[k] for g in blocks] for x in vectors for k in range(s)]
    moduli = [e[k] for _ in vectors for k in range(s)]
    return solve_homogeneous_congruences(rows, moduli, end.invariants)


def annihilator_maps(module, sub):
    """The endomorphisms whose Smith coordinates are the basis rows of
    ``sub``, a subgroup of End(M) such as ``end_left_annihilator`` returns."""
    end = hom_group(module, module)
    return [end.from_coords(coeffs) for coeffs in sub.basis]


def _end_blocks(module):
    """End(M)'s Smith generators as s x s matrices, sliced once per module."""
    memo, s = module.analysis, module.ngens
    if memo.end_blocks is None:
        gens = hom_group(module, module).subgroup.smith_gens
        memo.end_blocks = tuple(tuple(g[k * s:(k + 1) * s] for k in range(s)) for g in gens)
    return memo.end_blocks


def kernel_intersection(module, maps) -> Submodule:
    """Common kernel of a family of maps out of the module (all of it when
    the family is empty), in one congruence solve over their stacked
    matrices.  The kernel of a sum or a composite contains the kernels it
    is built from, so generators of a set of maps give the kernel of all
    they generate."""
    rows, moduli = [], []
    for f in maps:
        rows += f.matrix
        moduli += f.target.inv_factors
    return Submodule(module, solve_homogeneous_congruences(rows, moduli, module.inv_factors))
