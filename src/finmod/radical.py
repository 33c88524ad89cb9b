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

from dataclasses import dataclass
from operator import mul

from .algebra import analysis
from .config import DEFAULT_CAPS, CapExceeded
from .homspace import Homomorphism, hom_group
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
    if sub.module != module:
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
    if sub.module != module:
        raise ValueError("submodule of a different module")
    memo = analysis(module)
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
    memo = analysis(module).ell
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


def _require_proper_fully_invariant(module, p: Submodule, fi_list):
    if p not in fi_list:
        raise ValueError("candidate is not fully invariant")
    if p.is_full():
        raise ValueError("prime and semiprime candidates must be proper")


def is_prime_submodule(module, p: Submodule, caps=DEFAULT_CAPS):
    """Definitional primeness over all pairs of fully invariant submodules;
    returns (True, None) or (False, (n, k)) with a witness pair.

    A pair with a member inside ``p`` cannot be a witness, so only the
    members outside ``p`` are multiplied; the first witness is the first in
    the order of all pairs."""
    fis = fully_invariant_submodules(module, caps)
    _require_proper_fully_invariant(module, p, fis)
    outside = [n for n in fis if not n.le(p)]
    for n_sub in outside:
        for k_sub in outside:
            if product(module, n_sub, k_sub).le(p):
                return False, (n_sub, k_sub)
    return True, None


def is_semiprime_submodule(module, p: Submodule, caps=DEFAULT_CAPS):
    """Like primeness but only over diagonal pairs N*N <= P."""
    fis = fully_invariant_submodules(module, caps)
    _require_proper_fully_invariant(module, p, fis)
    for n_sub in fis:
        if not n_sub.le(p) and product(module, n_sub, n_sub).le(p):
            return False, n_sub
    return True, None


@dataclass(frozen=True)
class RadicalProfile:
    """Radical data for one module.

    ``no_primes`` flags the (hypothesis-violating) case of an empty prime
    spectrum, in which the radical intersection defaults to the module
    itself.  ``ell_locally_nilpotent`` reports, for ambients that are not
    quasi-projective, whether the computed radical is itself locally
    nilpotent; the closure-under-sums argument needs projectivity, so this is
    diagnostic rather than guaranteed.
    """

    ell: Submodule
    prime_radical: Submodule
    primes: tuple[Submodule, ...]
    semiprimes: tuple[Submodule, ...]
    nilpotency_of_radical: int | None
    no_primes: bool = False
    ell_locally_nilpotent: bool | None = None


def prime_radical(module, caps=DEFAULT_CAPS) -> RadicalProfile:
    """Intersection of all prime submodules, with the full radical profile."""
    memo = analysis(module).prime_radical
    hit = memo.get(caps)
    if hit is not None:
        return hit
    fis = fully_invariant_submodules(module, caps)
    primes = []
    semiprimes = []
    for p in fis:
        if p.is_full():
            continue
        if is_prime_submodule(module, p, caps)[0]:
            primes.append(p)
        if is_semiprime_submodule(module, p, caps)[0]:
            semiprimes.append(p)
    no_primes = not primes
    if no_primes:
        radical = Submodule.full(module)
    else:
        radical = primes[0]
        for p in primes[1:]:
            radical = radical.intersect(p)
    ell_sub = ell(module, caps)
    if is_quasi_projective(module, caps):
        ell_loc_nil = None
    else:
        try:
            ell_loc_nil = is_locally_nilpotent(module, ell_sub, caps=caps)
        except CapExceeded:
            ell_loc_nil = None
    profile = memo[caps] = RadicalProfile(
        ell=ell_sub,
        prime_radical=radical,
        primes=tuple(primes),
        semiprimes=tuple(semiprimes),
        nilpotency_of_radical=nilpotency_index(module, radical),
        no_primes=no_primes,
        ell_locally_nilpotent=ell_loc_nil,
    )
    return profile


@dataclass(frozen=True)
class SubmSequence:
    """Outcome of the orthogonal-sequence construction.

    diagnostics is ("complete", k), ("hypothesis_violated", j, witness) with
    witness the nonzero left annihilator slice (or, when j = 0, a cyclic
    submodule of N that is not nilpotent), or ("cap_reached", _MAX_STEPS).
    """

    modules_a: tuple[Submodule, ...]
    diagnostics: tuple


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
    """Ann_End(X), the endomorphisms vanishing on the elements X, as
    (generators, subgroup) with the subgroup in the Smith coordinates of
    End(M).

    With g_i the Smith generators of End(M), the map sum_i c_i g_i kills x
    iff sum_i c_i g_i(x) = 0 in M: one congruence per element x and
    coordinate k of M, over columns of moduli the invariants of End(M).  The
    generators are built from the solution's basis directly.  The common
    kernel of the generators is the closure Ann_M(Ann_End(X)) that
    ``annihilator_lattice`` and the annihilator checkers share."""
    end = hom_group(module, module).subgroup
    s, e = module.ngens, module.inv_factors
    smith = [[g[k * s:(k + 1) * s] for k in range(s)] for g in end.smith_gens]
    rows = [[sum(map(mul, g[k], x)) % e[k] for g in smith] for x in vectors for k in range(s)]
    moduli = [e[k] for _ in vectors for k in range(s)]
    sub = solve_homogeneous_congruences(rows, moduli, end.invariants)
    gens = [
        Homomorphism(module, module, tuple(
            tuple(sum(c * g[k][j] for c, g in zip(coeffs, smith)) % e[k] for j in range(s))
            for k in range(s)
        ))
        for coeffs in sub.basis
    ]
    return gens, sub


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
