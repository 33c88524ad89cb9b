"""The submodule product N*K inside an ambient module M (the sum of f(N) over
all maps f from M into K), its powers, and the nilpotency notions built on it:
nilpotent, nil, and locally nilpotent submodules.

Powers are left-nested by convention; associativity of the product is only
guaranteed when the ambient module lifts against its own quotients, so traces
also record whether the two nestings diverge instead of assuming they agree.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import memoized
from .config import DEFAULT_CAPS, CapExceeded
from .homspace import maps_into
from .lattice import Submodule, _cyclics, is_quasi_projective


@memoized
def product(module, left: Submodule, right: Submodule) -> Submodule:
    """Submodule generated by the images of ``left`` under every map from the
    ambient module into ``right``.

    Generated by {f(n)} with f ranging over ``maps_into(module, right)`` and
    n over the basis of ``left``; linearity makes this span the full sum.  A
    sum of images of a submodule under module maps is a submodule, so the
    rows need no closing under the ring action.
    """
    if not (left.module is module is right.module or left.module == module == right.module):
        raise ValueError("product arguments must live in the ambient module")
    if left.is_zero() or right.is_zero():
        return Submodule.zero(module)
    rows = [f.apply_vec(row) for f in maps_into(module, right) for row in left.basis]
    return Submodule.from_subgroup_rows(module, rows)


class PowerTrace(namedtuple("PowerTrace", "base chain terminal nesting_divergence")):
    """Successive powers of a submodule until they vanish or repeat.

    ``chain`` holds the left-nested powers base, base*base, ...
    ``terminal`` is ("zero", i) when chain[i-1] is the zero submodule, or
    ("cycle", j) when the next power equals chain[j-1].
    ``nesting_divergence`` is the first index at which the right-nested
    sequence differs from the left-nested one, or None.
    """

    __slots__ = ()


@memoized
def _left_powers(module, base: Submodule):
    """(chain, terminal) of the left-nested powers of base, as in PowerTrace."""
    chain = [base]
    index_of = {base: 1}
    while True:
        cur = chain[-1]
        if cur.is_zero():
            return tuple(chain), ("zero", len(chain))
        nxt = product(module, cur, base)
        if nxt in index_of:
            return tuple(chain), ("cycle", index_of[nxt])
        chain.append(nxt)
        index_of[nxt] = len(chain)


def power_trace(module, base: Submodule) -> PowerTrace:
    chain, terminal = _left_powers(module, base)
    divergence = None
    right = base
    for i in range(1, len(chain)):
        right = product(module, base, right)
        if right != chain[i]:
            divergence = i + 1
            break
    return PowerTrace(
        base=base,
        chain=chain,
        terminal=terminal,
        nesting_divergence=divergence,
    )


def nilpotency_index(module, base: Submodule) -> int | None:
    """Least exponent whose power vanishes, or None when the powers cycle."""
    kind, idx = _left_powers(module, base)[1]
    return idx if kind == "zero" else None


class NilVerdict(namedtuple("NilVerdict", "is_nil witness")):
    """``witness`` is None when ``is_nil``, and otherwise a cyclic submodule
    of the tested one that is not nilpotent."""

    __slots__ = ()


@memoized
def is_nil_submodule(module, sub: Submodule, caps=DEFAULT_CAPS) -> NilVerdict:
    """Whether every map from the ambient module into each cyclic submodule
    of ``sub`` is nilpotent: exactly when each such cyclic C is a nilpotent
    submodule, so the first C that is not is returned as the witness.

    The maps M -> C, followed by the inclusion, form a right ideal H of
    End(M).  A nil one-sided ideal lies in the Jacobson radical, which is
    nilpotent in a finite ring, so H is nil iff H^k(M) = 0 for some k.  H(X)
    is the product X*C, and since M*C <= C <= M and the product is monotone
    in its left factor, the chain X_1 = M*C, X_(k+1) = X_k*C satisfies
    X_k <= C^k and C^(k+1) <= X_k: it vanishes iff the left-nested powers of
    C do.
    """
    witness = next((c for c in _cyclics_inside(module, sub, caps)
                    if nilpotency_index(module, c) is None), None)
    return NilVerdict(witness is None, witness)


def _cyclics_inside(module, sub, caps):
    """{C: the first x spanning C} over the nonzero distinct cyclics C of
    ``sub``, in canonical order: C is the least member holding x."""
    return {c: x for c, x in _cyclics(module, caps).items() if not c.is_zero() and sub.contains(x)}


# Most maximal cyclic submodules the definitional locally-nilpotent test walks.
_SUBSET_CAP = 64


@memoized
def is_locally_nilpotent(
    module, sub: Submodule, caps=DEFAULT_CAPS, force_definitional: bool = False
) -> bool:
    """Uniform vanishing of ordered products of the cyclic submodules.

    When the ambient module is quasi-projective this reduces to nilpotency of
    the (finitely generated) submodule itself; ``force_definitional`` skips
    the reduction (useful when the reduction is the claim under test).
    Otherwise ``_levels_vanish`` walks the maximal cyclics of ``sub``, taken
    largest first: C is maximal iff no maximal one before it holds C's x.
    """
    if sub.is_zero():
        return True
    if not force_definitional and is_quasi_projective(module):
        return nilpotency_index(module, sub) is not None
    tops = []
    for c, x in sorted(_cyclics_inside(module, sub, caps).items(), key=lambda cx: -cx[0].order):
        if not any(d.contains(x) for d in tops):
            tops.append(c)
    return _levels_vanish(module, tops)


def _levels_vanish(module, cyclics):
    """Whether the left-nested products C_1*...*C_k of ``cyclics`` all
    vanish for some k; more than ``_SUBSET_CAP`` raise CapExceeded.  Level k,
    the nonzero such products, determines level k+1, and there are finitely
    many such sets, so the walk ends at an empty level (True) or at one it
    has seen, after which the levels cycle (False).  Over the maximal cyclics
    of N it answers as over all of them: the product is monotone in both
    factors, so each C_1*...*C_k lies below D_1*...*D_k for maximal
    D_i >= C_i, and level k over all the cyclics is empty iff over those."""
    if len(cyclics) > _SUBSET_CAP:
        raise CapExceeded("cyclic generators", len(cyclics), _SUBSET_CAP)
    states, seen = frozenset(cyclics), set()
    while states:
        seen.add(states)
        states = frozenset(q for p in states for c in cyclics
                           if not (q := product(module, p, c)).is_zero())
        if states in seen:
            return False
    return True
