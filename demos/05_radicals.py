"""Radicals and prime structure
===============================

The locally nilpotent radical is the sum of the nilpotent cyclic submodules;
for quasi-projective modules it coincides with the intersection of all prime
submodules, and on Goldie modules that intersection is nilpotent.
"""

from finmod.algebra import regular_module, triangular_ring, zn_ring
from finmod.lattice import Submodule, cyclic_submodule
from finmod.product import power_trace
from finmod.radical import (
    ann_left,
    ann_right,
    is_prime_submodule,
    is_semiprime_submodule,
    prime_radical,
    subm_sequence,
)


def power(module, base, exponent):
    """Left-nested power; exponent 1 is the submodule itself."""
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    trace = power_trace(module, base)
    chain, (kind, idx) = trace.chain, trace.terminal
    if exponent <= len(chain):
        return chain[exponent - 1]
    if kind == "zero":
        return Submodule.zero(module)
    # cycle: powers repeat with period len(chain) - idx + 1 from position idx
    period = len(chain) - idx + 1
    return chain[idx - 1 + (exponent - idx) % period]


def annihilator_chain_index(module, sub):
    """Least k at which the ascending chain of annihilators of the powers
    stabilizes: ann(N^k) = ann(N^(k+1))."""
    k = 1
    prev = ann_left(module, sub)
    while True:
        nxt = ann_left(module, power(module, sub, k + 1))
        if nxt == prev:
            return k
        prev = nxt
        k += 1


# The worked example: over Z/p^n the radical is generated by p and has
# nilpotency index exactly n.
for p, n in [(2, 3), (3, 2)]:
    m = regular_module(zn_ring(p**n))
    profile = prime_radical(m)
    print(
        f"Z/{p}^{n}: radical {profile.prime_radical.describe()}"
        f" = L {profile.ell.describe()},"
        f" nilpotency index {profile.nilpotency_of_radical}"
    )

# Annihilators: one-sided killers of a submodule.
z6 = regular_module(zn_ring(6))
two = cyclic_submodule(z6, (2,))
print("ann(2Z6) =", ann_left(z6, two).describe())
print("right ann(2Z6) =", ann_right(z6, two).describe())
print("annihilator chain stabilizes at:", annihilator_chain_index(z6, two))

# Prime and semiprime submodules of Z/6: zero is semiprime but not prime.
zero = Submodule.zero(z6)
print("0 semiprime in Z6:", is_semiprime_submodule(z6, zero)[0])
ok, witness = is_prime_submodule(z6, zero)
print("0 prime in Z6:", ok, " witness:", tuple(w.describe() for w in witness))

# A noncommutative example: the triangular ring's radical is the strictly
# upper triangular ideal, squaring to zero; its primes are the two maximal
# two-sided ideals.
t2 = regular_module(triangular_ring(2, 2))
profile = prime_radical(t2)
print("T2(Z2) radical:", profile.prime_radical.describe(),
      "index", profile.nilpotency_of_radical)
print("T2(Z2) primes:", [p.describe() for p in profile.primes])

# The orthogonal-sequence construction needs every annihilator slice of the
# powers to vanish; a nonzero nilpotent submodule always violates that, since
# its last power is zero and that slice is the whole submodule.
out = subm_sequence(t2, cyclic_submodule(t2, (0, 1, 0)))
print("sequence construction:", out[0], "at power", out[1])
