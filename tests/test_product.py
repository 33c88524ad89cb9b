"""Submodule product, powers, and nilpotency notions."""

import itertools
import random
import runpy
from pathlib import Path

import pytest

from finmod import algebra, homspace, lattice
from finmod.algebra import (
    FiniteModule,
    Homomorphism,
    ModuleAnalysis,
    compose,
    cyclic_module,
    direct_sum,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS
from finmod.harness import generate_corpus
from finmod.homspace import _solved_hom_subgroup, hom_group, maps_into
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    image,
    is_quasi_projective,
    submodule_as_module,
)
from finmod.oracle import brute_is_locally_nilpotent, brute_product
from finmod.product import (
    _cyclics_inside,
    _left_powers,
    is_locally_nilpotent,
    is_nil_submodule,
    nilpotency_index,
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
    for a in left.subgroup.elements():
        for b in right.subgroup.elements():
            rows.append(ring.mul_coeffs(a, b))
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
            emb = submodule_as_module(m, n_sub)
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


@pytest.fixture(scope="module")
def power():
    """The left-nested power that the radicals demo defines."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "05_radicals.py"
    return runpy.run_path(str(demo))["power"]


class TestPowers:
    def test_first_power(self, power):
        m = z4()
        n = cyclic_submodule(m, (2,))
        assert power(m, n, 1) == n

    def test_z8_chain(self, power):
        m = z8()
        n = cyclic_submodule(m, (2,))
        assert power(m, n, 2) == cyclic_submodule(m, (4,))
        assert power(m, n, 3).is_zero()
        trace = power_trace(m, n)
        assert trace.terminal == ("zero", 3)
        assert trace.nesting_divergence is None

    def test_z6_cycle(self, power):
        m = z6()
        n = cyclic_submodule(m, (2,))
        for k in (1, 2, 5):
            assert power(m, n, k) == n
        assert power_trace(m, n).terminal == ("cycle", 1)

    def test_right_nesting_diverges_off_quasi_projective(self):
        # On Z3 (+) Z27 over Z27, which is not quasi-projective, the
        # product is not associative: for N = <g0+3*g1, 9*g1>, N*N = <9*g1>
        # and N^3 = (N*N)*N = 0, but N*(N*N) = <9*g1>.  The oracle agrees.
        ring = zn_ring(27)
        m = direct_sum(cyclic_module(ring, 3), cyclic_module(ring, 27))[0]
        assert not is_quasi_projective(m)
        n = Submodule.span(m, [(1, 3), (0, 9)])
        nn = Submodule.span(m, [(0, 9)])
        trace = power_trace(m, n)
        assert trace.chain == (n, nn, Submodule.zero(m))
        assert trace.terminal == ("zero", 3)
        assert trace.nesting_divergence == 3
        assert brute_product(m, n, n) == nn
        assert brute_product(m, nn, n).is_zero()
        assert brute_product(m, n, nn) == nn

    def test_nilpotency_index(self):
        m = z8()
        assert nilpotency_index(m, Submodule.zero(m)) == 1
        assert nilpotency_index(m, cyclic_submodule(m, (2,))) == 3
        assert nilpotency_index(z6(), cyclic_submodule(z6(), (2,))) is None

    def test_power_chain_memo_agrees_with_a_fresh_walk(self):
        walked = 0
        for inst in generate_corpus(0, budget=110).instances:
            m = inst.module
            if m.order > 64:
                continue
            for base in all_submodules(m):
                chain = [base]
                while not chain[-1].is_zero():
                    nxt = product(m, chain[-1], base)
                    if nxt in chain:
                        terminal = ("cycle", chain.index(nxt) + 1)
                        break
                    chain.append(nxt)
                else:
                    terminal = ("zero", len(chain))
                memo = _left_powers(m, base)
                assert memo == (tuple(chain), terminal)
                assert _left_powers(m, base) is memo is m.analysis.memos[_left_powers][base,]
                walked += 1
        assert walked >= 300


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
        # the verdict enumerates no Hom elements, so it stays exact on Z4^3,
        # whose 4^9 endomorphisms are past the End cap: 2M is nil, M is not
        from finmod.config import MAX_END_ELEMENTS

        z4_reg = regular_module(zn_ring(4))
        m = direct_sum(direct_sum(z4_reg, z4_reg)[0], z4_reg)[0]
        assert hom_group(m, m).order > MAX_END_ELEMENTS
        assert m.inv_factors == (4, 4, 4)
        two_m = Submodule.span(m, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert is_nil_submodule(m, two_m).is_nil
        assert not is_nil_submodule(m, Submodule.full(m)).is_nil


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

    def test_maximal_cyclics_answer_as_all_cyclics(self):
        # (Z2 x T2(Z2))^2 / <g6> is not quasi-projective and has 95 nonzero
        # cyclics, 39 of them maximal; the chain of level sums over the 39
        # answers as the oracle's walk over all of them
        reg = regular_module(product_ring([zn_ring(2), triangular_ring(2, 2)]))
        square = direct_sum(reg, reg)[0]
        quot, _ = quotient_module(square, cyclic_submodule(square, [int(j == 6) for j in range(8)]))
        full = Submodule.full(quot)
        cyclics = list(_cyclics_inside(quot, full, DEFAULT_CAPS))
        assert len(cyclics) == 95
        assert sum(not any(c.lt(d) for d in cyclics) for c in cyclics) == 39
        assert not is_quasi_projective(quot)
        assert is_locally_nilpotent(quot, full) is brute_is_locally_nilpotent(quot, full) is False


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
                emb = submodule_as_module(x, right)
                rows = [
                    compose(emb.inclusion, g).apply_vec(r)
                    for g in hom_group(x, emb.module).generators
                    for r in pushed.basis
                ]
                assert product(x, pushed, right) == Submodule.span(x, rows)
                checked += 1
    assert checked >= 200


def _free_by_record(m):
    """Whether Hom out of m is read off its target: m is the regular module,
    or a recorded sum whose leaves all are."""
    reg = algebra._REGULAR.get(m.ring)
    built = algebra._SUMMANDS.get(m)
    return m == reg or bool(built) and all(p.target == reg for p in built[2])


def test_maps_out_of_a_free_module_span_its_hom_group():
    """Hom(R^n, K) = K^n: on every regular module of order <= 256 of the
    seed-0 corpus rings, and every R (+) R of that order, the maps read off
    K span the same maps M -> M as the Hom solve into K, for every K."""
    rings = dict.fromkeys(i.module.ring for i in generate_corpus(0, budget=110).instances)
    free = [regular_module(r) for r in rings if r.order <= 256]
    free += [direct_sum(f, f)[0] for f in free if f.order ** 2 <= 256]
    checked = 0
    for m in free:
        assert _free_by_record(m), m
        moduli = [e for e in m.inv_factors for _ in range(m.ngens)]
        for k in all_submodules(m):
            emb = submodule_as_module(m, k)
            solved = [
                compose(emb.inclusion, Homomorphism.from_flat(m, emb.module, g)).flatten()
                for g in _solved_hom_subgroup(m, emb.module).basis
            ]
            read_off = [f.flatten() for f in maps_into(m, k)]
            assert CanonicalSubgroup(moduli, read_off) == CanonicalSubgroup(moduli, solved), (m, k)
            checked += 1
    assert len(free) == 59 and checked >= 1600


def _is_map_into(f, k):
    """Whether the matrix of f: M -> M keeps the generator orders, commutes
    with every action matrix and has its image in k, checked from the
    matrices alone."""
    m, d = f.source, f.source.inv_factors
    orders = all(d[j] * v % d[i] == 0 for i, row in enumerate(f.matrix) for j, v in enumerate(row))
    actions = [Homomorphism(m, m, a) for a in m.actions]
    return orders and all(compose(f, a) == compose(a, f) for a in actions) and image(f).le(k)


def test_maps_into_a_submodule_of_a_non_free_module_span_its_hom_group(monkeypatch):
    """On every non-free seed-0 module of order <= 256, and every sum M (+) M
    and M (+) R of order <= 64, for every K: the maps that ``maps_into``
    solves, in M's coordinates or a recorded sum's leaves', are module maps
    into K, and they span the same maps M -> M as the Hom solve into K
    presented as a module.  They are found with no embedding and no Hom
    group: each module is a copy with an analysis of its own, so nothing is
    read from a memo."""
    modules = dict.fromkeys(i.module for i in generate_corpus(0, budget=110).instances
                            if i.module.order <= 256)
    sums = [direct_sum(m, x)[0] for m in modules for x in (m, regular_module(m.ring))
            if m.order * x.order <= 64]
    non_free = [m for m in dict.fromkeys([*modules, *sums]) if not _free_by_record(m)]
    built = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args):
            built.append(name)
            return fn(*args)

        monkeypatch.setattr(owner, name, call)

    counted(lattice, "_embedding")
    counted(homspace, "hom_group")
    solved = []
    for m in non_free:
        cold = FiniteModule(*m)
        cold.analysis = ModuleAnalysis()
        subs = all_submodules(cold)
        before = len(built)
        solved += [(cold, k, maps_into(cold, k)) for k in subs]
        assert len(built) == before, (m, built[before:])
    monkeypatch.undo()
    for cold, k, maps in solved:
        moduli = [e for e in cold.inv_factors for _ in range(cold.ngens)]
        emb = submodule_as_module(cold, k)
        expected = [compose(emb.inclusion, Homomorphism.from_flat(cold, emb.module, g)).flatten()
                    for g in _solved_hom_subgroup(cold, emb.module).basis]
        assert all(_is_map_into(f, k) for f in maps), (cold, k)
        assert CanonicalSubgroup(moduli, [f.flatten() for f in maps]) == CanonicalSubgroup(moduli, expected)
    assert len(non_free) == 93 and len(solved) >= 2000, (len(non_free), len(solved))
