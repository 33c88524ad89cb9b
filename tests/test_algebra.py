"""Ring and module data model: validation, builtins, constructors."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from finmod.algebra import (
    ActionIncompatible,
    FiniteModule,
    FiniteRing,
    NoUnit,
    NotAssociative,
    OrderViolation,
    ValidationError,
    act,
    cyclic_module,
    direct_sum,
    matrix_ring,
    module_from_actions,
    opposite_ring,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    validate_module,
    validate_ring,
    zn_ring,
)
from finmod.config import CapExceeded
from finmod.lattice import Submodule, cyclic_submodule


def t2f2():
    return triangular_ring(2, 2)


class TestValidateRing:
    def test_zn_valid(self):
        r = zn_ring(4)
        assert r.rank == 1 and r.add_orders == (4,) and r.unit == (1,)
        assert validate_ring(r) is r

    def test_unit_acting_as_zero(self):
        bad = FiniteRing(add_orders=(4,), struct=(((1,),),), unit=(0,))
        with pytest.raises(NoUnit):
            validate_ring(bad)

    def test_non_associative(self):
        # corrupt the triangular ring: declare e12 * e12 = e12
        good = t2f2()
        struct = [list(map(list, row)) for row in good.struct]
        struct[1][1] = [0, 1, 0]
        bad = FiniteRing(
            add_orders=good.add_orders,
            struct=tuple(tuple(tuple(c) for c in row) for row in struct),
            unit=good.unit,
        )
        with pytest.raises(NotAssociative):
            validate_ring(bad)

    def test_triangular_valid(self):
        r = t2f2()
        assert r.rank == 3
        assert r.order == 8
        assert r.labels == ("e11", "e12", "e22")

    def test_matrix_units(self):
        r = matrix_ring(2, 2)
        assert r.rank == 4 and r.order == 16
        idx = {lbl: i for i, lbl in enumerate(r.labels)}

        def unit_vec(lbl):
            return tuple(1 if i == idx[lbl] else 0 for i in range(4))

        # e_ab * e_cd = delta_bc * e_ad
        assert r.mul_coeffs(unit_vec("e12"), unit_vec("e21")) == unit_vec("e11")
        assert r.mul_coeffs(unit_vec("e12"), unit_vec("e12")) == (0, 0, 0, 0)
        assert r.mul_coeffs(unit_vec("e11"), unit_vec("e12")) == unit_vec("e12")

    def test_cap(self):
        with pytest.raises(CapExceeded):
            matrix_ring(3, 3)


class TestOppositeRing:
    def test_commutative_identical(self):
        r = zn_ring(4)
        assert opposite_ring(r).struct == r.struct

    def test_involution_bit_exact(self):
        r = t2f2()
        assert opposite_ring(opposite_ring(r)) == r
        assert opposite_ring(opposite_ring(r)).name == r.name

    def test_opposite_is_valid_ring(self):
        op = opposite_ring(matrix_ring(2, 2))
        assert validate_ring(op) is op
        # genuinely different multiplication
        assert op.struct != matrix_ring(2, 2).struct


class TestProductRing:
    def test_renormalizes_to_chain(self):
        pr = product_ring([zn_ring(4), zn_ring(6)])
        assert pr.add_orders == (2, 12)
        assert pr.order == 24
        assert validate_ring(pr) is pr

    def test_unit_is_identity(self):
        pr = product_ring([zn_ring(2), t2f2()])
        for x in pr.elements():
            assert pr.mul_coeffs(pr.unit, x.coeffs) == x.coeffs
            assert pr.mul_coeffs(x.coeffs, pr.unit) == x.coeffs


class TestValidateModule:
    def test_regular_z4(self):
        m = regular_module(zn_ring(4))
        assert m.inv_factors == (4,)
        assert validate_module(m.ring, m) is m

    def test_small_cyclic_over_z4(self):
        m = cyclic_module(zn_ring(4), 2)
        assert m.inv_factors == (2,)

    def test_order_violation(self):
        # generator of order 2 mapped with an odd coefficient into one of order 4
        ring = zn_ring(4)
        with pytest.raises(OrderViolation):
            module_from_actions(ring, (2, 4), [[[1, 0], [1, 1]]])

    def test_action_incompatible(self):
        ring = t2f2()
        m = regular_module(ring)
        # corrupt one action matrix: swap the action of e12 for that of e22
        bad = FiniteModule(
            ring=ring,
            inv_factors=m.inv_factors,
            actions=(m.actions[0], m.actions[2], m.actions[2]),
        )
        with pytest.raises((ActionIncompatible, ValidationError)):
            validate_module(ring, bad)


class TestRegularModule:
    def test_z6(self):
        m = regular_module(zn_ring(6))
        assert m.order == 6

    def test_t2f2_left_multiplication(self):
        ring = t2f2()
        m = regular_module(ring)
        assert m.order == 8
        # act(e11, e12) = e12, act(e22, e12) = 0
        e11 = ring.element((1, 0, 0))
        e12 = m.element((0, 1, 0))
        assert act(e11, e12).coeffs == (0, 1, 0)
        e22 = ring.element((0, 0, 1))
        assert act(e22, e12).coeffs == (0, 0, 0)

    def test_matrix_ring_regular(self):
        m = regular_module(matrix_ring(2, 2))
        assert m.order == 16


class TestAct:
    def test_unit_acts_trivially(self):
        m = regular_module(zn_ring(6))
        one = m.ring.one()
        for x in m.elements():
            assert act(one, x) == x

    def test_z4_scalar(self):
        m = regular_module(zn_ring(4))
        assert act(m.ring.element((2,)), m.element((3,))).coeffs == (2,)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_linearity_triangular(self, a, b, c):
        ring = t2f2()
        m = regular_module(ring)
        elems = list(m.elements())
        rings = list(ring.elements())
        r, x, y = rings[a], elems[b], elems[c]
        assert act(r, x + y) == act(r, x) + act(r, y)
        s = rings[(a * 3 + 1) % 8]
        assert act(r + s, x) == act(r, x) + act(s, x)
        assert act(r * s, x) == act(r, act(s, x))


class TestQuotient:
    def test_by_zero_and_full(self):
        m = regular_module(zn_ring(4))
        q0, p0 = quotient_module(m, Submodule.zero(m))
        assert q0.inv_factors == m.inv_factors
        qm, pm = quotient_module(m, Submodule.full(m))
        assert qm.inv_factors == ()
        assert pm.apply(m.element((3,))).coeffs == ()

    def test_z4_mod_2m(self):
        m = regular_module(zn_ring(4))
        two_m = cyclic_submodule(m, (2,))
        q, p = quotient_module(m, two_m)
        assert q.inv_factors == (2,)
        assert p.apply(m.element((2,))).is_zero()
        assert not p.apply(m.element((1,))).is_zero()

    def test_order_multiplicativity(self):
        ring = t2f2()
        m = regular_module(ring)
        for gen in [(0, 1, 0), (1, 0, 0), (1, 1, 0)]:
            s = cyclic_submodule(m, gen)
            q, _ = quotient_module(m, s)
            assert m.order == s.order * q.order

    def test_projection_is_module_map(self):
        m = regular_module(t2f2())
        s = cyclic_submodule(m, (0, 1, 0))
        q, p = quotient_module(m, s)
        for r in m.ring.elements():
            for x in list(m.elements())[:4]:
                assert p.apply(act(r, x)) == act(
                    q.ring.element(r.coeffs), p.apply(x)
                )


class TestDirectSum:
    def test_sum_with_zero(self):
        m = regular_module(zn_ring(4))
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        d, (ia, ib), (pa, pb) = direct_sum(m, zero_mod)
        assert d.inv_factors == m.inv_factors

    def test_mixed_orders(self):
        ring = zn_ring(4)
        d, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
        assert d.inv_factors == (2, 4)
        assert d.order == 8

    def test_free_rank_two(self):
        m = regular_module(zn_ring(4))
        d, _, _ = direct_sum(m, m)
        assert d.inv_factors == (4, 4)

    def test_injection_projection_identities(self):
        ring = zn_ring(4)
        a = cyclic_module(ring, 2)
        b = regular_module(ring)
        d, (ia, ib), (pa, pb) = direct_sum(a, b)
        from finmod.homspace import compose

        assert compose(pa, ia).matrix == ((1,),)
        assert compose(pb, ib).matrix == ((1,),)
        assert compose(pa, ib).is_zero()
        assert compose(pb, ia).is_zero()

    def test_different_rings_rejected(self):
        with pytest.raises(ValidationError):
            direct_sum(regular_module(zn_ring(4)), regular_module(zn_ring(6)))


def test_self_consistency_of_constructors():
    for ring in [zn_ring(6), t2f2(), matrix_ring(2, 2), product_ring([zn_ring(2), zn_ring(4)])]:
        assert validate_ring(ring) is ring
        m = regular_module(ring)
        assert validate_module(ring, m) is m


def test_pickled_module_hashes_like_fresh_one():
    # The hash is cached on first use, but never pickled: labels are strings,
    # whose hash differs between interpreters.
    ring = matrix_ring(2, 2)
    m = regular_module(ring)
    hash(m)
    assert "_hash" in m.__dict__ and "_hash" in ring.__dict__
    back = pickle.loads(pickle.dumps(m))
    assert "_hash" not in back.__dict__ and "_hash" not in back.ring.__dict__
    fresh = regular_module(matrix_ring(2, 2))
    assert back == fresh and back.ring == fresh.ring
    assert hash(back) == hash(fresh) == hash(m)
    assert hash(back.ring) == hash(fresh.ring)
    assert len({m: 1, back: 2, fresh: 3}) == 1


def test_derived_modules_are_valid_by_construction():
    """Quotients, direct sums and submodules are built without validation;
    every one the corpus gives rise to still passes it."""
    from finmod.harness import generate_corpus
    from finmod.lattice import all_submodules, submodule_as_module

    checked = 0
    for inst in generate_corpus(0, 110).instances:
        m = inst.module
        derived = [direct_sum(m, m)[0], direct_sum(m, regular_module(m.ring))[0]]
        for sub in all_submodules(m):
            derived.append(quotient_module(m, sub)[0])
            derived.append(submodule_as_module(sub).module)
        for d in derived:
            assert validate_module(m.ring, d) is d
        checked += len(derived)
    assert checked >= 1500
