"""Finite rings and finite modules
==================================

Rings are given by additive invariant factors plus structure constants;
modules by invariant factors plus one action matrix per ring basis element.
Validation checks associativity, the unit, order compatibility, and the
module law against the structure constants.
"""

from finmod.algebra import (
    act,
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
from finmod.lattice import cyclic_submodule

# Builtin families: Z/n, full and triangular matrix rings, direct products.
z4 = zn_ring(4)
t2 = triangular_ring(2, 2)  # upper triangular 2x2 over Z/2, basis e11 e12 e22
m2 = matrix_ring(2, 2)
print("T2(Z2):", t2.add_orders, "order", t2.order, "labels", t2.labels)

# Products renormalize the additive group into a divisibility chain.
pr = product_ring([zn_ring(4), zn_ring(6)])
print("Z4 x Z6 invariant factors:", pr.add_orders)

# The opposite ring transposes multiplication; twice is the identity.
print("opposite is involutive:", opposite_ring(opposite_ring(t2)) == t2)

# Modules: the ring acting on itself, and small cyclic quotients.
reg = regular_module(t2)
e11 = t2.element((1, 0, 0))
e12 = reg.element((0, 1, 0))
print("e11 . e12 =", act(e11, e12).coeffs, " (left multiplication)")

# Quotients and direct sums come with projections and injections.
half = cyclic_module(z4, 2)
mixed, (inj_a, inj_b), (proj_a, proj_b) = direct_sum(half, regular_module(z4))
print("Z2 (+) Z4 over Z4:", mixed.inv_factors, "order", mixed.order)

j = cyclic_submodule(reg, (0, 1, 0))
quot, projection = quotient_module(reg, j)
print("T2(Z2)/<e12> has order", quot.order)
print("projection kills e12:", projection.apply_vec((0, 1, 0)))
