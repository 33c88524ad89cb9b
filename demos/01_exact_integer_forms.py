"""Exact integer linear algebra
===============================

Everything in this library reduces to three primitives: Smith normal form
with unimodular transforms, canonical Hermite bases for subgroups of a finite
product of cyclic groups, and homogeneous congruence solving.  Matrices are
lists of rows, and every subgroup is a ``CanonicalSubgroup``.
"""

from finmod.intlat import CanonicalSubgroup, snf, solve_homogeneous_congruences


def mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# Smith normal form: U * A * V = D, with D diagonal and each diagonal entry
# dividing the next.
a = [[2, 4], [6, 8]]
U, D, V = snf(a)
print("A =", a)
print("D =", D)
print("U*A*V == D:", mul(mul(U, a), V) == D)

# Canonical subgroup bases: equal subgroups of Z/2 x Z/4 always produce the
# same rows, so subgroup equality is plain tuple comparison.
g1 = CanonicalSubgroup((2, 4), [[1, 1]])
g2 = CanonicalSubgroup((2, 4), [[1, 3], [0, 2]])
print("canonical basis of <(1,1)>:", g1.basis)
print("same subgroup from different generators:", g1 == g2)

# The subgroup object also exposes membership, order, and the invariant
# factor decomposition.
print("order:", g1.order, " invariants:", g1.invariants)
print("contains (0,2):", g1.contains((0, 2)))
print("elements:", sorted(g1.elements()))

# Homogeneous congruences: solve 2x = 0 (mod 4) for x in Z/4.
sol = solve_homogeneous_congruences([[2]], [4], [4])
print("solutions of 2x = 0 in Z/4:", sorted(sol.elements()))
