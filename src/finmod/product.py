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
from .config import DEFAULT_CAPS
from .homspace import maps_into
from .lattice import Submodule, _cyclics


@memoized
def product(module, left: Submodule, right: Submodule) -> Submodule:
    """Submodule generated by the images of ``left`` under every map from the
    ambient module into ``right``.

    Generated by {f(n)} with f ranging over ``maps_into(module, right)`` and
    n over the basis of ``left``; linearity makes this span the full sum.  A
    sum of images of a submodule under module maps is a submodule, so the
    rows need no closing under the ring action.
    """
    if not (module.acts_like(left.module) and module.acts_like(right.module)):
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


@memoized
def is_locally_nilpotent(module, sub: Submodule, caps=DEFAULT_CAPS) -> bool:
    """Whether the left-nested products C_1*...*C_k of the cyclic
    submodules of ``sub`` all vanish for some k.

    The product is additive in its left factor, (A + B)*K = A*K + B*K, so
    the sum S_k of the level-k products satisfies S_1 = N and
    S_(k+1) = sum_C S_k*C.  Over the maximal cyclics of N this sum is the one
    over all of them, since the product is monotone in its right factor.
    S_2 <= S_1, as S_1*C <= C, and monotonicity in the left factor carries
    S_(k+1) <= S_k down the chain: it falls until it reaches 0 (True) or
    stops (False).  A maximal C that is not nilpotent puts C^k in every
    level, so that answers False before the chain.  The maximal cyclics are
    taken largest first: C is maximal iff no maximal one before it holds
    C's x.
    """
    tops = []
    for c, x in sorted(_cyclics_inside(module, sub, caps).items(), key=lambda cx: -cx[0].order):
        if not any(d.contains(x) for d in tops):
            tops.append(c)
    if any(nilpotency_index(module, c) is None for c in tops):
        return False
    level = sub
    while not level.is_zero():
        below = Submodule.from_subgroup_rows(
            module, [row for c in tops for row in product(module, level, c).basis])
        if below == level:
            return False
        level = below
    return True
