"""Brute-force oracle self-checks and main-path cross-validation on small
instances.  The full corpus-wide equivalence run lives in the acceptance
suite."""

import pytest

from finmod.algebra import (
    analysis,
    cyclic_module,
    direct_sum,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS, CapExceeded
from finmod.harness import generate_corpus
from finmod.homspace import hom_group
from finmod.lattice import (
    Submodule,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    is_projective_relative,
    is_quasi_projective,
    is_retractable,
    submodule_as_module,
)
from finmod.oracle import (
    BudgetExceeded,
    OracleBudget,
    brute_all_submodules,
    brute_ann_left,
    brute_annihilator_lattice,
    brute_ann_right,
    brute_ell,
    brute_fully_invariant_submodules,
    brute_hom_group,
    brute_is_locally_nilpotent,
    brute_is_nil_submodule,
    brute_is_quasi_projective,
    brute_is_retractable,
    brute_product,
    brute_prime_radical,
)
from finmod.product import is_locally_nilpotent, is_nil_submodule, product
from finmod.radical import ann_left, ann_right, ell, prime_radical


def z4():
    return regular_module(zn_ring(4))


def z6():
    return regular_module(zn_ring(6))


SMALL_MODULES = []


def small_modules():
    if not SMALL_MODULES:
        ring4 = zn_ring(4)
        mixed, _, _ = direct_sum(cyclic_module(ring4, 2), regular_module(ring4))
        SMALL_MODULES.extend(
            [
                z4(),
                z6(),
                regular_module(zn_ring(8)),
                regular_module(zn_ring(12)),
                regular_module(triangular_ring(2, 2)),
                mixed,
            ]
        )
    return SMALL_MODULES


class TestBruteHom:
    def test_into_submodule_of_z4(self):
        m = z4()
        two_m = submodule_as_module(cyclic_submodule(m, (2,))).module
        homs = brute_hom_group(m, two_m)
        assert sorted(h.matrix for h in homs) == [((0,),), ((1,),)]

    def test_into_zero(self):
        m = z4()
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        homs = brute_hom_group(m, zero_mod)
        assert len(homs) == 1

    def test_coprime(self):
        m = z6()
        src = submodule_as_module(cyclic_submodule(m, (2,))).module
        dst = submodule_as_module(cyclic_submodule(m, (3,))).module
        homs = brute_hom_group(src, dst)
        assert len(homs) == 1 and homs[0].is_zero()

    def test_budget(self):
        m = regular_module(triangular_ring(2, 2))
        with pytest.raises(BudgetExceeded):
            brute_hom_group(m, m, OracleBudget(max_hom_enumeration=4))

    def test_target_order_budget(self):
        # the target's tables are quadratic in its order, so an order past
        # the budget is refused before they are built
        ring4 = zn_ring(4)
        big = regular_module(ring4)
        for _ in range(4):
            big = direct_sum(big, regular_module(ring4))[0]
        with pytest.raises(BudgetExceeded) as exc:
            brute_hom_group(cyclic_module(ring4, 2), big)
        assert exc.value.what == "module order" and exc.value.needed == 1024

    def test_matches_main_path(self):
        for m in small_modules():
            got = {h.matrix for h in brute_hom_group(m, m)}
            want = {h.matrix for h in hom_group(m, m).elements()}
            assert got == want

    def test_matches_main_path_cross_pairs(self):
        mods = small_modules()
        pairs = [(a, b) for a in mods for b in mods if a.ring == b.ring]
        assert pairs
        for a, b in pairs:
            if a.order * b.order > 4096:
                continue
            got = {h.matrix for h in brute_hom_group(a, b)}
            want = {h.matrix for h in hom_group(a, b).elements()}
            assert got == want


class TestBruteProduct:
    def test_examples(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert brute_product(m, two_m, two_m).is_zero()
        assert brute_product(m, two_m, Submodule.full(m)) == two_m
        m6 = z6()
        assert brute_product(
            m6, cyclic_submodule(m6, (2,)), cyclic_submodule(m6, (3,))
        ).is_zero()

    def test_matches_main_path(self):
        for m in small_modules():
            lat = list(all_submodules(m))
            for a in lat:
                for b in lat:
                    assert brute_product(m, a, b) == product(m, a, b)


class TestBruteLattice:
    def test_z6_count(self):
        assert len(brute_all_submodules(z6())) == 4

    def test_matches_main_path(self):
        for m in small_modules():
            got = sorted(brute_all_submodules(m), key=Submodule.sort_key)
            want = list(all_submodules(m))
            assert got == want

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_all_submodules(z6(), OracleBudget(max_lattice=2))


class TestBruteRadicals:
    def test_examples(self):
        m = z4()
        assert brute_ell(m) == cyclic_submodule(m, (2,))
        assert brute_prime_radical(z6()).is_zero()

    def test_zero_module(self):
        m = z4()
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        assert brute_ell(zero_mod).is_zero()
        assert brute_prime_radical(zero_mod).order == 1

    def test_ell_matches_main_path(self):
        for m in small_modules():
            assert brute_ell(m) == ell(m)

    def test_prime_radical_matches_main_path(self):
        for m in small_modules():
            assert brute_prime_radical(m) == prime_radical(m).prime_radical


def _corpus_modules(max_order):
    corpus = generate_corpus(0, budget=110)
    return list(dict.fromkeys(i.module for i in corpus.instances if i.module.order <= max_order))


class TestBruteLocallyNilpotent:
    def test_definitional_path_matches(self):
        # Every submodule of each distinct seed-0 corpus module of order at
        # most 256 (the oracle's order budget), through the definitional path
        # the quasi-projective reduction would otherwise skip.
        compared = {True: 0, False: 0}
        for m in _corpus_modules(256):
            for s in all_submodules(m):
                try:
                    brute = brute_is_locally_nilpotent(m, s)
                    fast = is_locally_nilpotent(m, s, force_definitional=True)
                except (CapExceeded, BudgetExceeded):
                    continue
                assert brute == fast, (m.name, s.describe())
                compared[brute] += 1
        assert sum(compared.values()) >= 700 and min(compared.values()) >= 200, compared


class TestBruteNil:
    def test_examples(self):
        m = z4()
        assert brute_is_nil_submodule(m, cyclic_submodule(m, (2,)))
        assert brute_is_nil_submodule(m, Submodule.zero(m))
        assert not brute_is_nil_submodule(m, Submodule.full(m))
        m6 = z6()
        assert not brute_is_nil_submodule(m6, cyclic_submodule(m6, (2,)))

    def test_matches_main_path(self):
        # Every submodule of each distinct seed-0 corpus module of order at
        # most 256: the oracle iterates every map into every cyclic, the fast
        # path only takes powers of the cyclics.
        compared = {True: 0, False: 0}
        for m in _corpus_modules(256):
            for s in all_submodules(m):
                try:
                    brute = brute_is_nil_submodule(m, s)
                except BudgetExceeded:
                    continue
                assert brute == is_nil_submodule(m, s).is_nil, (m.name, s.describe())
                compared[brute] += 1
        assert sum(compared.values()) >= 700, compared
        assert compared[True] >= 200 and compared[False] >= 500, compared


class TestBruteAnnihilators:
    def test_examples(self):
        m = z4()
        two_m = cyclic_submodule(m, (2,))
        assert brute_ann_left(m, two_m) == two_m
        assert brute_ann_right(m, two_m) == two_m
        assert brute_ann_left(m, Submodule.zero(m)) == Submodule.full(m)
        assert brute_ann_right(m, Submodule.full(m)).is_zero()
        m6 = z6()
        assert brute_ann_right(m6, cyclic_submodule(m6, (2,))) == cyclic_submodule(m6, (3,))

    def test_budget(self):
        m = regular_module(triangular_ring(2, 2))
        with pytest.raises(BudgetExceeded):
            brute_ann_left(m, Submodule.full(m), OracleBudget(max_hom_enumeration=4))
        with pytest.raises(BudgetExceeded):
            brute_ann_right(m, Submodule.full(m), OracleBudget(max_lattice=2))

    def test_matches_main_path(self):
        # Every submodule of each distinct seed-0 corpus module of order at
        # most 256, on both sides.  The budget is raised as in
        # TestBruteAnnihilatorLattice: the default candidate product stops
        # the Hom enumeration of six modules whose maps list quickly.
        budget = OracleBudget(max_hom_enumeration=2**36)
        compared = {"left": 0, "right": 0}
        for m in _corpus_modules(256):
            for s in all_submodules(m):
                for side, brute, fast in (
                    ("left", brute_ann_left, ann_left),
                    ("right", brute_ann_right, ann_right),
                ):
                    assert brute(m, s, budget) == fast(m, s), (m.name, s.describe(), side)
                    compared[side] += 1
        assert compared == {"left": 737, "right": 737}, compared


class TestBruteAnnihilatorLattice:
    def test_examples(self):
        assert [s.order for s in brute_annihilator_lattice(z4())] == [1, 2, 4]
        assert [s.order for s in brute_annihilator_lattice(z6())] == [1, 2, 3, 6]

    def test_budget(self):
        m = regular_module(triangular_ring(2, 2))
        with pytest.raises(BudgetExceeded):
            brute_annihilator_lattice(m, OracleBudget(max_hom_enumeration=4))

    def test_matches_main_path(self):
        # Every distinct seed-0 corpus module of order at most 256.  The
        # candidate budget bounds the product of the generator pools, which
        # overstates the pruned enumeration: 2^36 for T3(Z2)-regular, whose
        # 64 endomorphisms are listed in milliseconds.
        budget = OracleBudget(max_hom_enumeration=2**36)
        compared = 0
        for m in _corpus_modules(256):
            brute = brute_annihilator_lattice(m, budget)
            assert set(brute) == set(annihilator_lattice(m)), m.name
            compared += 1
        assert compared == 97


def _small_direct_sums():
    """The distinct M (+) M, M (+) R and R (+) R of order at most 64, built
    with ``direct_sum`` so the fast path splits them; Z2 (+) Z4 over Z4 is not
    quasi-projective."""
    out = {}
    ring4 = zn_ring(4)
    for m in (
        z4(),
        z6(),
        cyclic_module(ring4, 2),
        regular_module(zn_ring(8)),
        regular_module(triangular_ring(2, 2)),
    ):
        reg = regular_module(m.ring)
        for a, b in ((m, m), (m, reg), (reg, reg)):
            if a.order * b.order <= 64:
                out.setdefault(direct_sum(a, b)[0], None)
    return list(out)


# The default candidate budget stops the End enumeration of six corpus
# modules (M2(Z3), T3(Z2), T3(Z2)/<e13>, T2(Z4), Z3 x M2(Z2) and
# T2(Z2)^2/<e12>) and of T2(Z2)^2, whose endomorphisms list in under 0.4 s.
END_BUDGET = OracleBudget(max_hom_enumeration=2**36)


@pytest.fixture(scope="module")
def oracle_scale_modules():
    corpus = generate_corpus(0, budget=110)
    return [i.module for i in corpus.instances if i.module.order <= 256] + _small_direct_sums()


class TestBruteRetractable:
    def test_examples(self):
        assert brute_is_retractable(z4())
        assert brute_is_retractable(regular_module(triangular_ring(2, 2)))
        zero_mod, _ = quotient_module(z4(), Submodule.full(z4()))
        assert brute_is_retractable(zero_mod)
        # the ideal spanned by e12 and e22 has one simple submodule, spanned
        # by e12, and no nonzero map into it
        t2 = regular_module(triangular_ring(2, 2))
        ideal = submodule_as_module(Submodule.span(t2, [(0, 1, 0), (0, 0, 1)])).module
        assert not brute_is_retractable(ideal)

    def test_a_later_simple_submodule_decides(self):
        # T3(Z2)/<e11, e12> has two simple submodules; only the second in
        # canonical order receives no nonzero map
        t3 = regular_module(triangular_ring(3, 2))
        e11, e12 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)
        quot, _ = quotient_module(t3, Submodule.span(t3, [e11, e12]))
        assert not brute_is_retractable(quot)
        assert not is_retractable(quot)

    def test_matches_main_path(self, oracle_scale_modules):
        compared = {True: 0, False: []}
        for m in oracle_scale_modules:
            brute = brute_is_retractable(m, END_BUDGET)
            assert brute == is_retractable(m), m.name
            if brute:
                compared[True] += 1
            else:
                compared[False].append(m.name)
        # the corpus instance T2(Z2)-ideal4
        assert compared == {True: 106, False: ["T2(Z2) regular|<e12, e22>"]}, compared


class TestBruteFullyInvariant:
    def test_examples(self):
        assert len(brute_fully_invariant_submodules(z4())) == 3
        t2 = regular_module(triangular_ring(2, 2))
        fis = sorted(brute_fully_invariant_submodules(t2), key=Submodule.sort_key)
        assert [s.order for s in fis] == [1, 2, 4, 4, 8]

    def test_matches_main_path(self, oracle_scale_modules):
        compared = 0
        for m in oracle_scale_modules:
            brute = brute_fully_invariant_submodules(m, END_BUDGET)
            assert sorted(brute, key=Submodule.sort_key) == fully_invariant_submodules(m), m.name
            compared += 1
        assert compared == 107


class TestBruteQuasiProjective:
    def test_examples(self):
        ring4 = zn_ring(4)
        assert brute_is_quasi_projective(z4())
        assert brute_is_quasi_projective(cyclic_module(ring4, 2))
        mixed, _, _ = direct_sum(cyclic_module(ring4, 2), regular_module(ring4))
        assert not brute_is_quasi_projective(mixed)
        zero_mod, _ = quotient_module(z4(), Submodule.full(z4()))
        assert brute_is_quasi_projective(zero_mod)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_is_quasi_projective(z6(), OracleBudget(max_hom_enumeration=2))

    def test_matches_main_path(self, oracle_scale_modules):
        compared = {True: 0, False: 0}
        for m in oracle_scale_modules:
            try:
                brute = brute_is_quasi_projective(m)
            except BudgetExceeded:
                continue
            assert brute == is_quasi_projective(m), m.name
            compared[brute] += 1
        assert compared[True] >= 60 and compared[False] >= 5, compared
        assert not all(is_quasi_projective(m) for m in _small_direct_sums())

    def test_sum_is_split_into_relative_projectivity(self):
        ring4 = zn_ring(4)
        two, four = cyclic_module(ring4, 2), regular_module(ring4)
        mixed, _, _ = direct_sum(two, four)
        assert analysis(mixed).summands == (two, four)
        assert is_projective_relative(four, two) and is_projective_relative(two, two)
        assert not is_projective_relative(two, four)
        assert not is_quasi_projective(mixed)
        assert (four, DEFAULT_CAPS) in analysis(two).projective
