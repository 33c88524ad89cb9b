"""Annihilator operators, the locally nilpotent radical, prime and semiprime
submodules, the prime radical, and the hypothesis of the orthogonal-sequence
construction for nil submodules.

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

from .algebra import memoized
from .config import DEFAULT_CAPS, CapExceeded
from .homspace import hom_group, maps_into
from .intlat import solve_homogeneous_congruences
from .lattice import (
    Submodule,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    is_quasi_projective,
)
from .product import (
    _left_powers, is_locally_nilpotent, is_nil_submodule, nilpotency_index, product,
)


def ann_left(module, sub: Submodule) -> Submodule:
    """Intersection of the kernels of all maps from the module into ``sub``.

    The kernels of a generating set suffice: the kernel of a sum of maps
    contains the intersection of their kernels.  The inclusion of ``sub`` is
    injective, so the maps of ``maps_into`` have the same kernels.
    """
    if not module.acts_like(sub.module):
        raise ValueError("submodule of a different module")
    return kernel_intersection(module, maps_into(module, sub))


@memoized
def ann_right(module, sub: Submodule, caps=DEFAULT_CAPS) -> Submodule:
    """Sum of all submodules K with sub*K = 0.

    Monotonicity of the product in its second argument makes the sum over
    the cyclic K equal to the full definitional sum.  And sub*C = 0 iff
    every map from the module into C kills sub, that is iff sub <= ann_left(C),
    so no product is formed: the cyclics C whose memoized left annihilator
    holds ``sub`` are summed in one HNF.
    """
    if not module.acts_like(sub.module):
        raise ValueError("submodule of a different module")
    rows = [r for c, a in _cyclic_annihilators(module, caps) if sub.le(a) for r in c.basis]
    return Submodule.from_subgroup_rows(module, rows)


@memoized
def _cyclic_annihilators(module, caps):
    """The pairs (C, ann_left(C)) of the distinct cyclics C."""
    return tuple((c, ann_left(module, c)) for c in distinct_cyclic_submodules(module, caps))


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


@memoized
def ell(module, caps=DEFAULT_CAPS) -> Submodule:
    """The largest locally nilpotent submodule: the sum of all nilpotent
    cyclic submodules."""
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


@memoized
def is_semiprime_submodule(module, p: Submodule, caps=DEFAULT_CAPS):
    """Like primeness but only over diagonal pairs N*N <= P; by the same
    monotonicity only the minimal members outside ``p`` are squared, and the
    witness is the first of them whose square lies in ``p``."""
    witness = next((n for n in _minimal_outside(module, p, caps)
                    if product(module, n, n).le(p)), None)
    return witness is None, witness


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
    otherwise, or when ``ell`` itself meets a cap); the closure-under-sums
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
        if is_quasi_projective(self.module):
            return None
        try:
            return is_locally_nilpotent(self.module, self.ell, self.caps)
        except CapExceeded:
            return None


@memoized
def prime_radical(module, caps=DEFAULT_CAPS) -> RadicalProfile:
    """Intersection of all prime submodules, with its radical profile; the
    profile's other fields are computed when first read."""
    fis = fully_invariant_submodules(module, caps)
    primes = tuple(p for p in fis if not p.is_full() and is_prime_submodule(module, p, caps)[0])
    radical = functools.reduce(Submodule.intersect, primes) if primes else Submodule.full(module)
    return RadicalProfile(
        module=module,
        caps=caps,
        prime_radical=radical,
        primes=primes,
        nilpotency_of_radical=nilpotency_index(module, radical),
        no_primes=not primes,
    )


def subm_sequence(module, sub: Submodule, caps=DEFAULT_CAPS) -> tuple:
    """Test the hypothesis of the orthogonal-sequence construction
    A_1 = r_N(N), A_{i+1} = r_N(A_1 * ... * A_i * N) for a fully invariant
    nil submodule N: that every left annihilator slice l_N(N^j) is zero.

    Returns ("complete", 0) when N is zero; ("hypothesis_violated", j,
    witness) with witness the first nonzero slice l_N(N^j), or, when j = 0,
    a cyclic submodule of N that is not nilpotent; and ("no_slice", k) when
    every slice of the k powers in N's chain is zero.  A nilpotent N has the
    slice l_N(0) = N, so "no_slice" names a nil N that is not nilpotent.
    """
    fis = fully_invariant_submodules(module, caps)
    if sub not in fis:
        raise ValueError("sequence construction needs a fully invariant submodule")
    if sub.is_zero():
        return ("complete", 0)
    verdict = is_nil_submodule(module, sub, caps)
    if not verdict.is_nil:
        return ("hypothesis_violated", 0, verdict.witness)
    chain = _left_powers(module, sub)[0]
    for j, pow_j in enumerate(chain, start=1):
        slice_j = l_rel(module, sub, pow_j)
        if not slice_j.is_zero():
            return ("hypothesis_violated", j, slice_j)
    return ("no_slice", len(chain))


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


@memoized
def _end_blocks(module):
    """End(M)'s Smith generators as s x s matrices, sliced once per module."""
    s, gens = module.ngens, hom_group(module, module).subgroup.smith_gens
    return tuple(tuple(g[k * s:(k + 1) * s] for k in range(s)) for g in gens)


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
