"""Submodule product, powers, and nilpotency notions."""

import itertools
import random

from finmod.algebra import (
    direct_sum,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.harness import generate_corpus
from finmod.homspace import compose, hom_group, image
from finmod.lattice import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    submodule_as_module,
)
from finmod.product import (
    is_locally_nilpotent,
    is_nil_submodule,
    nilpotency_index,
    power,
    power_trace,
    product,
)


def z4():
    return regular_module(zn_ring(4))


def z6():
    return regular_module(zn_ring(6))


def z8():
    return regular_module(zn_ring(8))


def t2f2_reg():
    return regular_module(triangular_ring(2, 2))


class TestProduct:
    def test_zero_absorbing(self):
        m = z4()
        zero = Submodule.zero(m)
        full = Submodule.full(m)
        assert product(m, zero, full).is_zero()
        assert product(m, full, zero).is_zero()

    def test_doubling_kills_2m(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert product(m, two_m, two_m).is_zero()

    def test_matches_ideal_product_on_regular_module(self):
        # on the ring as a module over itself the product is the ideal product
        m = z4()
        two = cyclic_submodule(m, (2,))
        assert product(m, two, two) == _ideal_product(m, two, two)

        mt = t2f2_reg()
        lat = all_submodules(mt)
        for left, right in itertools.product(lat, repeat=2):
            assert product(mt, left, right) == _ideal_product(mt, left, right)

    def test_contained_in_right_factor_and_monotone(self):
        m = t2f2_reg()
        lat = list(all_submodules(m))
        for left, right in itertools.product(lat, repeat=2):
            p = product(m, left, right)
            assert p.le(right)
        for a, b, k in itertools.product(lat, repeat=3):
            if a.le(b):
                assert product(m, a, k).le(product(m, b, k))
                assert product(m, k, a).le(product(m, k, b))

    def test_associative_when_quasi_projective(self):
        for m in [z4(), z6(), t2f2_reg()]:
            lat = list(all_submodules(m))
            for a, b, c in itertools.product(lat, repeat=3):
                left = product(m, product(m, a, b), c)
                right = product(m, a, product(m, b, c))
                assert left == right


def _ideal_product(m, left, right):
    """Elementwise ideal product on a regular module, via ring arithmetic."""
    ring = m.ring
    rows = []
    for a in left.elements():
        for b in right.elements():
            rows.append(ring.mul_coeffs(a.coeffs, b.coeffs))
    return Submodule.span(m, rows)


class TestEndomorphismCompatibility:
    def test_image_commutes_with_product(self):
        # f(A*B) = A*f(B) and f(A)*B <= A*B for quasi-projective ambients
        for m in [z8(), t2f2_reg()]:
            lat = list(all_submodules(m))
            endos = list(hom_group(m, m).elements())
            for f in endos:
                for a, b in itertools.product(lat, repeat=2):
                    ab = product(m, a, b)
                    f_ab = Submodule.span(m, [f.apply_vec(r) for r in ab.basis])
                    f_b = Submodule.span(m, [f.apply_vec(r) for r in b.basis])
                    assert f_ab == product(m, a, f_b)
                    f_a = Submodule.span(m, [f.apply_vec(r) for r in a.basis])
                    assert product(m, f_a, b).le(ab)

    def test_projection_commutes_with_self_product(self):
        # pi(N*N) = pi(N) * pi(N) in M/K for fully invariant K
        for m in [z8(), t2f2_reg()]:
            lat = list(all_submodules(m))
            for k_sub in fully_invariant_submodules(m):
                quot, proj = quotient_module(m, k_sub)
                for n_sub in lat:
                    pn = Submodule.span(quot, [proj.apply_vec(r) for r in n_sub.basis])
                    lhs = Submodule.span(
                        quot,
                        [
                            proj.apply_vec(r)
                            for r in product(m, n_sub, n_sub).basis
                        ],
                    )
                    assert lhs == product(quot, pn, pn)


class TestRestrictedAmbient:
    def test_product_in_smaller_ambient_contains(self):
        # K*L computed inside N contains K*L computed inside M, with equality
        # when N is a direct summand
        m = t2f2_reg()
        lat = list(all_submodules(m))
        for n_sub in lat:
            if n_sub.is_zero():
                continue
            emb = submodule_as_module(n_sub)
            sub_lat = all_submodules(emb.module)
            for k_inner, l_inner in itertools.product(sub_lat, repeat=2):
                k_outer = Submodule.span(
                    m, [emb.inclusion.apply_vec(r) for r in k_inner.basis]
                )
                l_outer = Submodule.span(
                    m, [emb.inclusion.apply_vec(r) for r in l_inner.basis]
                )
                inner = product(emb.module, k_inner, l_inner)
                inner_in_m = Submodule.span(
                    m, [emb.inclusion.apply_vec(r) for r in inner.basis]
                )
                outer = product(m, k_outer, l_outer)
                assert outer.le(inner_in_m)
                if _is_direct_summand(m, n_sub, lat):
                    assert outer == inner_in_m


def _is_direct_summand(m, n_sub, lat):
    return any(
        n_sub.intersect(c).is_zero() and n_sub.sum(c).is_full() for c in lat
    )


class TestPowers:
    def test_first_power(self):
        m = z4()
        n = cyclic_submodule(m, (2,))
        assert power(m, n, 1) == n

    def test_z8_chain(self):
        m = z8()
        n = cyclic_submodule(m, (2,))
        assert power(m, n, 2) == cyclic_submodule(m, (4,))
        assert power(m, n, 3).is_zero()
        trace = power_trace(m, n)
        assert trace.terminal == ("zero", 3)
        assert trace.nesting_divergence is None

    def test_z6_cycle(self):
        m = z6()
        n = cyclic_submodule(m, (2,))
        for k in (1, 2, 5):
            assert power(m, n, k) == n
        assert power_trace(m, n).terminal == ("cycle", 1)

    def test_nilpotency_index(self):
        m = z8()
        assert nilpotency_index(m, Submodule.zero(m)) == 1
        assert nilpotency_index(m, cyclic_submodule(m, (2,))) == 3
        assert nilpotency_index(z6(), cyclic_submodule(z6(), (2,))) is None


class TestNilSubmodule:
    def test_zero(self):
        m = z4()
        assert is_nil_submodule(m, Submodule.zero(m)).is_nil

    def test_2m_in_z4(self):
        m = z4()
        v = is_nil_submodule(m, cyclic_submodule(m, (2,)))
        assert v.is_nil and v.witness is None

    def test_2m_in_z6_with_witness(self):
        m = z6()
        two_m = cyclic_submodule(m, (2,))
        v = is_nil_submodule(m, two_m)
        assert not v.is_nil
        # the witness is a cyclic submodule of 2Z6 whose powers never vanish
        assert v.witness in distinct_cyclic_submodules(m) and v.witness.le(two_m)
        assert nilpotency_index(m, v.witness) is None

    def test_radical_of_triangular_is_nil(self):
        m = t2f2_reg()
        j = cyclic_submodule(m, (0, 1, 0))
        assert is_nil_submodule(m, j).is_nil

    def test_bounded_fallback(self):
        # the verdict enumerates no Hom elements, so even a Hom element cap
        # of 1 leaves it exact
        from finmod.config import Caps

        tight = Caps(max_hom_elements=1)
        m = z4()
        assert is_nil_submodule(m, cyclic_submodule(m, (2,)), caps=tight).is_nil
        m6 = z6()
        assert not is_nil_submodule(m6, cyclic_submodule(m6, (2,)), caps=tight).is_nil


class TestLocallyNilpotent:
    def test_zero(self):
        m = z4()
        assert is_locally_nilpotent(m, Submodule.zero(m))

    def test_2m_in_z4(self):
        m = z4()
        assert is_locally_nilpotent(m, cyclic_submodule(m, (2,)))

    def test_2m_in_z6(self):
        m = z6()
        assert not is_locally_nilpotent(m, cyclic_submodule(m, (2,)))

    def test_sum_of_nilpotents_nilpotent_when_quasi_projective(self):
        for m in [z8(), t2f2_reg()]:
            lat = list(all_submodules(m))
            nilpotents = [s for s in lat if nilpotency_index(m, s) is not None]
            for a, b in itertools.product(nilpotents, repeat=2):
                assert nilpotency_index(m, a.sum(b)) is not None


def _maps_out_of(m, rng):
    """An End element, a projection onto a quotient and a direct-sum
    injection, each a module map out of m."""
    end = hom_group(m, m)
    yield end.from_coords([rng.randrange(d) for d in end.group_invariants])
    subs = list(all_submodules(m))
    yield quotient_module(m, rng.choice(subs))[1]
    yield direct_sum(m, m)[1][rng.randrange(2)]


def test_images_and_products_need_no_action_closure():
    """The additive rows an image or a product is built from already span a
    submodule: closing them under the ring action changes nothing."""
    rng = random.Random(0)
    checked = 0
    for inst in generate_corpus(0, budget=110).instances:
        m = inst.module
        if m.order > 64:
            continue
        lat = list(all_submodules(m))
        for f in _maps_out_of(m, rng):
            x = f.target
            assert image(f) == Submodule.span(x, list(zip(*f.matrix)))
            for n_sub in rng.sample(lat, min(3, len(lat))):
                rows = [f.apply_vec(r) for r in n_sub.basis]
                pushed = image(f, n_sub)
                assert pushed == Submodule.span(x, rows)
                right = image(f)
                if right.is_zero():
                    continue
                emb = submodule_as_module(right)
                rows = [
                    compose(emb.inclusion, g).apply_vec(r)
                    for g in hom_group(x, emb.module).generators
                    for r in pushed.basis
                ]
                assert product(x, pushed, right) == Submodule.span(x, rows)
                checked += 1
    assert checked >= 200
