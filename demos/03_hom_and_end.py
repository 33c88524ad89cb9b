"""Hom groups and endomorphism rings
====================================

Hom(M, N) is computed in one congruence solve: a matrix is a homomorphism
exactly when it commutes with every ring action and respects generator
orders.  The endomorphism ring is materialized as a finite ring whose basis
realizes the invariant-factor decomposition of Hom(M, M).  Whether an
endomorphism is nilpotent is read off its powers, up to the composition
length of the module.
"""

from finmod.algebra import Homomorphism, compose, direct_sum, regular_module, validate_ring, zn_ring
from finmod.homspace import end_ring, hom_group
from finmod.lattice import cyclic_submodule, image, kernel, submodule_as_module


def _omega(n: int) -> int:
    """Number of prime factors with multiplicity."""
    count = 0
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    if n > 1:
        count += 1
    return count


def composition_length(module) -> int:
    """Length of any maximal chain of subgroups; bounds every strictly
    decreasing chain of submodules."""
    return sum(_omega(d) for d in module.inv_factors)


def is_nilpotent_endo(f):
    """(True, least index) when some power of f is zero, else (False, None).

    The image chain of an endomorphism strictly decreases until it
    stabilizes, so checking up to the composition length decides nilpotency.
    """
    if f.source != f.target:
        raise ValueError("nilpotency is about endomorphisms")
    bound = composition_length(f.source)
    if f.is_zero():
        return True, 1
    power = f
    for k in range(1, bound + 1):
        if power.is_zero():
            return True, k
        power = compose(power, f)
    return False, None


z4 = regular_module(zn_ring(4))

# Hom from Z/4 into its submodule 2*Z/4 is cyclic of order 2.
two = cyclic_submodule(z4, (2,))
emb = submodule_as_module(z4, two)
h = hom_group(z4, emb.module)
print("Hom(Z4, 2Z4) invariants:", h.group_invariants)
gen = compose(emb.inclusion, h.generators[0])
print("its generator doubles:", gen.matrix)

# Kernels and images come back as canonical submodules.
doubling = Homomorphism.of(z4, z4, [[2]])
print("kernel:", kernel(doubling).describe(), " image:", image(doubling).describe())
print("doubling is nilpotent:", is_nilpotent_endo(doubling))

# End((Z/2)^2) is the full 2x2 matrix ring over Z/2: sixteen endomorphisms,
# multiplication = matrix composition.
f2 = regular_module(zn_ring(2))
plane, _, _ = direct_sum(f2, f2)
er = end_ring(plane)
print("End((Z2)^2) order:", er.as_ring.order, "orders:", er.as_ring.add_orders)
print("validates as a ring:", validate_ring(er.as_ring) is er.as_ring)
