"""Annihilators, the locally nilpotent radical, and prime structure."""

import functools
import itertools
import runpy
import time
from pathlib import Path

import pytest

from finmod.algebra import (
    clear_analyses,
    compose,
    cyclic_module,
    direct_sum,
    matrix_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS, CapExceeded
from finmod.harness import generate_corpus
from finmod.homspace import hom_group
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    _lattice,
    all_submodules,
    cyclic_submodule,
    fully_invariant_submodules,
    is_quasi_projective,
    kernel,
    submodule_as_module,
)
from finmod.product import is_locally_nilpotent, nilpotency_index, product
from finmod.radical import (
    ann_left,
    ann_right,
    annihilator_maps,
    ell,
    end_left_annihilator,
    is_prime_submodule,
    is_semiprime_submodule,
    kernel_intersection,
    l_rel,
    prime_radical,
    r_rel,
    subm_sequence,
)


def z4():
    return regular_module(zn_ring(4))


def z6():
    return regular_module(zn_ring(6))


def t2():
    return regular_module(triangular_ring(2, 2))


class TestAnnihilators:
    def test_ann_left_extremes(self):
        m = z4()
        assert ann_left(m, Submodule.zero(m)).is_full()
        assert ann_left(m, Submodule.full(m)).is_zero()

    def test_ann_left_z4(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert ann_left(m, two_m) == two_m

    def test_ann_right_extremes(self):
        m = z4()
        assert ann_right(m, Submodule.zero(m)).is_full()

    def test_ann_right_z4(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert ann_right(m, two_m) == two_m

    def test_ann_right_z6(self):
        m = z6()
        assert ann_right(m, cyclic_submodule(m, (2,))) == cyclic_submodule(m, (3,))

    def test_rel_variants(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert l_rel(m, two_m, Submodule.zero(m)) == two_m
        assert r_rel(m, two_m, two_m) == two_m
        assert l_rel(m, two_m, two_m) == two_m

    def test_rel_containment_checked(self):
        m = z6()
        two_m = cyclic_submodule(m, (2,))
        three_m = cyclic_submodule(m, (3,))
        with pytest.raises(ValueError):
            l_rel(m, two_m, three_m)

    def test_ann_left_is_largest_killer(self):
        # ann(N)*N = 0 and every L with L*N = 0 sits inside ann(N)
        for m in [z4(), z6(), t2()]:
            lat = list(all_submodules(m))
            for n_sub in lat:
                a = ann_left(m, n_sub)
                assert product(m, a, n_sub).is_zero()
                for l_sub in lat:
                    if product(m, l_sub, n_sub).is_zero():
                        assert l_sub.le(a)

    def test_ann_right_kills_and_is_largest_on_quasi_projective(self):
        for m in [z4(), z6(), t2()]:
            lat = list(all_submodules(m))
            for n_sub in lat:
                a = ann_right(m, n_sub)
                assert product(m, n_sub, a).is_zero()
                for k_sub in lat:
                    if product(m, n_sub, k_sub).is_zero():
                        assert k_sub.le(a)

    def test_ann_right_intersection_identity(self):
        # meet of right annihilators = right annihilator of the sum
        for m in [z6(), t2()]:
            lat = list(all_submodules(m))
            for n1, n2 in itertools.product(lat, repeat=2):
                lhs = ann_right(m, n1).intersect(ann_right(m, n2))
                assert lhs == ann_right(m, n1.sum(n2))

    def test_triple_right_annihilator_identity(self):
        for m in [z6(), t2()]:
            for n_sub in all_submodules(m):
                rn = ann_right(m, n_sub)
                assert ann_right(m, ann_left(m, rn)) == rn


class TestEndAnnihilators:
    def test_dual_kernel_identity(self):
        # l_S of the common kernel of l_S(X) recovers l_S(X)
        for m in [z4(), z6(), t2()]:
            elems = list(itertools.product(*map(range, m.inv_factors)))
            subsets = [elems[:1], elems[:2], elems[1:3], elems]
            for x in subsets:
                sub = end_left_annihilator(m, x)
                common = kernel_intersection(m, annihilator_maps(m, sub))
                sub2 = end_left_annihilator(
                    m, [r for r in common.basis] or [tuple(0 for _ in m.inv_factors)]
                )
                assert sub == sub2

    def test_kernel_chain_identity(self):
        # common kernel of Y = common kernel of l_S(common kernel of Y)
        m = t2()
        end = hom_group(m, m)
        all_endos = list(end.elements())
        for pick in range(0, len(all_endos), 3):
            y = all_endos[pick : pick + 2]
            common = kernel_intersection(m, y)
            gens = annihilator_maps(m, end_left_annihilator(
                m, [r for r in common.basis] or [tuple(0 for _ in m.inv_factors)]
            ))
            assert kernel_intersection(m, gens) == common


@pytest.fixture(scope="module")
def small_corpus_modules():
    """The distinct seed-0 corpus modules of order at most 32."""
    corpus = generate_corpus(0, budget=110)
    return list(dict.fromkeys(i.module for i in corpus.instances if i.module.order <= 32))


class TestClosureHelpers:
    def test_kernel_intersection_is_the_fold_of_kernels(self, small_corpus_modules):
        compared = 0
        for m in small_corpus_modules:
            end = hom_group(m, m)
            families = [[], list(end.generators), list(end.smith_basis())]
            families += [
                list(hom_group(m, submodule_as_module(m, s).module).generators)
                for s in all_submodules(m)[1:4]
            ]
            for maps in families:
                fold = functools.reduce(
                    Submodule.intersect, map(kernel, maps), Submodule.full(m)
                )
                assert kernel_intersection(m, maps) == fold, m.name
                compared += 1
        assert compared >= 430, compared

    def test_end_left_annihilator_spans_the_vanishing_endomorphisms(
        self, small_corpus_modules
    ):
        compared = 0
        for m in small_corpus_modules:
            end = hom_group(m, m)
            zero = tuple(0 for _ in m.inv_factors)
            for s in all_submodules(m):
                vanishing = {
                    f.flatten()
                    for f in end.elements()
                    if all(f.apply_vec(x) == zero for x in s.basis)
                }
                sub = end_left_annihilator(m, s.basis)
                gens = annihilator_maps(m, sub)
                span = CanonicalSubgroup(end.subgroup.moduli, [g.flatten() for g in gens])
                assert set(span.elements()) == vanishing, (m.name, s.describe())
                assert sub.order == len(vanishing)
                compared += 1
        assert compared >= 500, compared


class TestEll:
    def test_z4(self):
        m = z4()
        assert ell(m) == cyclic_submodule(m, (2,))

    def test_z6_is_zero(self):
        assert ell(z6()).is_zero()

    def test_simple_matrix_ring(self):
        assert ell(regular_module(matrix_ring(2, 2))).is_zero()

    def test_prime_power_tower(self):
        for p in (2, 3):
            for n in range(1, 5):
                m = regular_module(zn_ring(p**n))
                radical = ell(m)
                assert radical == cyclic_submodule(m, (p,))
                expected_index = n if n > 1 else 1
                if n == 1:
                    assert radical.is_zero()
                else:
                    assert nilpotency_index(m, radical) == n

    def test_fully_invariant_and_vanishing_quotient(self):
        for m in [z4(), regular_module(zn_ring(8)), t2(), z6()]:
            radical = ell(m)
            assert radical in fully_invariant_submodules(m)
            quot, _ = quotient_module(m, radical)
            assert ell(quot).is_zero()

    def test_direct_sum_additive(self):
        ring = zn_ring(4)
        a = regular_module(ring)
        b = cyclic_module(ring, 2)
        d, (ia, ib), _ = direct_sum(a, b)
        lhs = ell(d)
        rhs_rows = [ia.apply_vec(r) for r in ell(a).basis] + [
            ib.apply_vec(r) for r in ell(b).basis
        ]
        assert lhs == Submodule.span(d, rhs_rows)


class TestPrimeSemiprime:
    def test_z4_prime(self):
        m = z4()
        ok, witness = is_prime_submodule(m, cyclic_submodule(m, (2,)))
        assert ok and witness is None

    def test_z4_zero_not_semiprime(self):
        m = z4()
        ok, witness = is_semiprime_submodule(m, Submodule.zero(m))
        assert not ok
        assert witness == cyclic_submodule(m, (2,))

    def test_z6_zero_semiprime_not_prime(self):
        m = z6()
        ok, _ = is_semiprime_submodule(m, Submodule.zero(m))
        assert ok
        ok, witness = is_prime_submodule(m, Submodule.zero(m))
        assert not ok
        assert {witness[0].order, witness[1].order} == {2, 3}

    def test_full_module_rejected(self):
        m = z4()
        with pytest.raises(ValueError):
            is_prime_submodule(m, Submodule.full(m))

    def test_non_fully_invariant_rejected(self):
        ring = zn_ring(2)
        sq, _, _ = direct_sum(regular_module(ring), regular_module(ring))
        line = cyclic_submodule(sq, (1, 0))
        with pytest.raises(ValueError):
            is_prime_submodule(sq, line)


class TestPrimeRadical:
    def test_z4(self):
        m = z4()
        profile = prime_radical(m)
        assert profile.prime_radical == cyclic_submodule(m, (2,))
        assert profile.prime_radical == profile.ell
        assert profile.nilpotency_of_radical == 2
        assert not profile.no_primes

    def test_z6(self):
        profile = prime_radical(z6())
        assert profile.prime_radical.is_zero()
        assert sorted(p.order for p in profile.primes) == [2, 3]

    def test_triangular(self):
        m = t2()
        profile = prime_radical(m)
        j = cyclic_submodule(m, (0, 1, 0))
        assert profile.prime_radical == j
        assert profile.nilpotency_of_radical == 2
        assert sorted(p.order for p in profile.primes) == [4, 4]

    def test_free_triangular_cube_without_its_lattice(self):
        # T2(Z2)^3 has order 512 and a lattice past the default cap; its
        # radical needs only the fully invariant lattice and the summands
        r = t2()
        sq, (a1, a2), _ = direct_sum(r, r)
        cube, (b1, b2), _ = direct_sum(sq, r)
        start = time.perf_counter()
        profile = prime_radical(cube)
        assert time.perf_counter() - start < 20
        j = cyclic_submodule(r, (0, 1, 0))
        expected = Submodule.zero(cube)
        for inj in (compose(b1, a1), compose(b1, a2), b2):
            expected = expected.sum(Submodule.span(cube, [inj.apply_vec(x) for x in j.basis]))
        assert profile.prime_radical == expected
        assert profile.nilpotency_of_radical == 2
        assert (DEFAULT_CAPS,) not in cube.analysis.memos[_lattice]

    def test_radical_is_intersection_of_primes(self):
        for m in [z4(), z6(), t2(), regular_module(matrix_ring(2, 2))]:
            profile = prime_radical(m)
            acc = Submodule.full(m)
            for p in profile.primes:
                acc = acc.intersect(p)
            assert profile.prime_radical == acc

    def test_ell_below_semiprimes_when_quasi_projective(self):
        for m in [z4(), z6(), t2()]:
            profile = prime_radical(m)
            for s in profile.semiprimes:
                assert profile.ell.le(s)


@pytest.fixture(scope="module")
def radical_modules():
    """The distinct seed-0 corpus modules, and each corpus ring's R (+) R of
    order at most 256."""
    corpus = generate_corpus(0, budget=110)
    out = dict.fromkeys(i.module for i in corpus.instances)
    for ring in dict.fromkeys(i.module.ring for i in corpus.instances):
        reg = regular_module(ring)
        if reg.order**2 <= 256:
            out.setdefault(direct_sum(reg, reg)[0], None)
    return list(out)


def _all_pairs_verdicts(m, p):
    """(prime, semiprime) for P, from every pair of fully invariant members
    outside P."""
    outside = [n for n in fully_invariant_submodules(m) if not n.le(p)]
    prime = not any(product(m, n, k).le(p) for n in outside for k in outside)
    semiprime = not any(product(m, n, n).le(p) for n in outside)
    return prime, semiprime


class TestMinimalMembers:
    def test_verdicts_and_witnesses_match_all_pairs(self, radical_modules):
        verdicts = {"prime": 0, "not prime": 0, "semiprime": 0, "not semiprime": 0}
        for m in radical_modules:
            fis = fully_invariant_submodules(m)
            for p in fis:
                if p.is_full():
                    continue
                prime, semiprime = _all_pairs_verdicts(m, p)
                outside = [n for n in fis if not n.le(p)]
                ok, pair = is_prime_submodule(m, p)
                assert ok == prime, (m.name, p.describe())
                if not ok:
                    n, k = pair
                    assert n in outside and k in outside, (m.name, p.describe())
                    assert product(m, n, k).le(p)
                    # the witness is a pair of minimal members outside P
                    assert not any(x != y and x.le(y) for x in outside for y in pair)
                ok, n = is_semiprime_submodule(m, p)
                assert ok == semiprime, (m.name, p.describe())
                if not ok:
                    assert n in outside and product(m, n, n).le(p)
                    assert not any(x != n and x.le(n) for x in outside)
                verdicts["prime" if prime else "not prime"] += 1
                verdicts["semiprime" if semiprime else "not semiprime"] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_lazy_profile_fields(self, radical_modules):
        for m in radical_modules:
            profile = prime_radical(m)
            assert profile.ell == ell(m), m.name
            assert profile.semiprimes == tuple(
                p for p in fully_invariant_submodules(m)
                if not p.is_full() and _all_pairs_verdicts(m, p)[1]
            ), m.name
            if is_quasi_projective(m):
                want = None
            else:
                try:
                    want = is_locally_nilpotent(m, ell(m))
                except CapExceeded:
                    want = None
            assert profile.ell_locally_nilpotent == want, m.name

    def test_nilpotency_read_leaves_ell_uncomputed(self):
        clear_analyses()
        reg = t2()
        free2, _, _ = direct_sum(reg, reg)
        assert prime_radical(free2).nilpotency_of_radical == 2
        assert (DEFAULT_CAPS,) in free2.analysis.memos[prime_radical]
        assert (DEFAULT_CAPS,) not in free2.analysis.memos[ell]
        assert prime_radical(free2).ell == ell(free2)


class TestSubmSequence:
    def test_zero_submodule(self):
        m = z4()
        assert subm_sequence(m, Submodule.zero(m)) == ("complete", 0)

    def test_z4_hypothesis_violated(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert subm_sequence(m, two_m) == ("hypothesis_violated", 1, two_m)

    def test_every_nonzero_fully_invariant_nil_is_violated(self):
        for m in [z4(), regular_module(zn_ring(8)), t2()]:
            from finmod.product import is_nil_submodule

            for n_sub in fully_invariant_submodules(m):
                if n_sub.is_zero() or n_sub.is_full():
                    continue
                if not is_nil_submodule(m, n_sub).is_nil:
                    continue
                assert subm_sequence(m, n_sub)[0] == "hypothesis_violated"


@pytest.fixture(scope="module")
def annihilator_chain_index():
    """The chain index that the radicals demo defines and prints."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "05_radicals.py"
    return runpy.run_path(str(demo))["annihilator_chain_index"]


class TestChainIndex:
    def test_zero(self, annihilator_chain_index):
        m = z4()
        assert annihilator_chain_index(m, Submodule.zero(m)) == 1

    def test_z4(self, annihilator_chain_index):
        m = z4()
        assert annihilator_chain_index(m, cyclic_submodule(m, (2,))) == 2

    def test_z6_cycle(self, annihilator_chain_index):
        m = z6()
        assert annihilator_chain_index(m, cyclic_submodule(m, (2,))) == 1
