"""Brute-force oracle self-checks and main-path cross-validation on small
instances.  The full corpus-wide equivalence run lives in the acceptance
suite."""

import functools
import itertools
import math
import operator
from pathlib import Path

import pytest

from finmod import algebra, lattice, oracle
from finmod.algebra import (
    Homomorphism,
    _matrix_units_ring,
    compose,
    cyclic_module,
    direct_sum,
    module_from_actions,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.cli import parse_instance
from finmod.config import DEFAULT_CAPS, Caps, CapExceeded
from finmod.harness import generate_corpus
from finmod.homspace import hom_group
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    is_quasi_projective,
    is_retractable,
    submodule_as_module,
)
from finmod.oracle import (
    BudgetExceeded,
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
    brute_primes,
)
from finmod.product import is_locally_nilpotent, is_nil_submodule, nilpotency_index, product
from finmod.radical import ann_left, ann_right, ell, is_semiprime_submodule, prime_radical
from test_lattice import _rule_edge_cases


def z4():
    return regular_module(zn_ring(4))


def z6():
    return regular_module(zn_ring(6))


def _tighten(monkeypatch, **budgets):
    """Lower oracle budgets for one test, over tables built afresh: a memo
    filled under the defaults would answer past the lower budget."""
    oracle._tables.cache_clear()
    for name, value in budgets.items():
        monkeypatch.setattr(oracle, name, value)


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
        two_m = submodule_as_module(m, cyclic_submodule(m, (2,))).module
        homs = brute_hom_group(m, two_m)
        assert sorted(h.matrix for h in homs) == [((0,),), ((1,),)]

    def test_into_zero(self):
        m = z4()
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        homs = brute_hom_group(m, zero_mod)
        assert len(homs) == 1

    def test_coprime(self):
        m = z6()
        src = submodule_as_module(m, cyclic_submodule(m, (2,))).module
        dst = submodule_as_module(m, cyclic_submodule(m, (3,))).module
        homs = brute_hom_group(src, dst)
        assert len(homs) == 1 and homs[0].is_zero()

    def test_budget(self, monkeypatch):
        m = regular_module(triangular_ring(2, 2))
        _tighten(monkeypatch, MAX_CANDIDATES=4)
        with pytest.raises(BudgetExceeded):
            brute_hom_group(m, m)

    def test_budget_bounds_each_level(self, monkeypatch):
        # The product of T3(Z2)'s candidate pools is 2^36, but the pruned
        # search, in its greedy generator order, holds at most 4,096
        # candidates at one level (2^15 in the order of the generators)
        m = regular_module(triangular_ring(3, 2))
        assert len(brute_hom_group(m, m)) == 64
        _tighten(monkeypatch, MAX_CANDIDATES=4095)
        with pytest.raises(BudgetExceeded) as exc:
            brute_hom_group(m, m)
        assert exc.value.needed == 4096

    def test_greedy_order_returns_maps_in_lexicographic_order(self, monkeypatch):
        # End(T2(Z2) (+) T2(Z2)) peaks at 16,384 candidates in the greedy
        # order (2^20 in the order of the generators); the maps still come
        # back sorted by their generator images, the matrices' columns
        t2 = regular_module(triangular_ring(2, 2))
        m = direct_sum(t2, t2)[0]
        _tighten(monkeypatch, MAX_CANDIDATES=2**14)
        homs = brute_hom_group(m, m)
        images = [tuple(zip(*h.matrix)) for h in homs]
        assert len(images) == 4096 and images == sorted(images)
        _tighten(monkeypatch, MAX_CANDIDATES=2**14 - 1)
        with pytest.raises(BudgetExceeded):
            brute_hom_group(m, m)

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

    def test_zero_modules(self):
        # a map out of a module with no generators is a matrix of empty rows
        m = z4()
        zero = quotient_module(m, Submodule.full(m))[0]
        assert brute_hom_group(zero, m) == [Homomorphism.from_flat(zero, m, ())]
        assert brute_hom_group(zero, zero) == [Homomorphism.from_flat(zero, zero, ())]

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
        # Every pair of submodules of each distinct seed-0 corpus module of
        # order at most 256
        compared = 0
        for m in _corpus_modules(256):
            lat = list(all_submodules(m))
            for a in lat:
                for b in lat:
                    assert brute_product(m, a, b) == product(m, a, b), (m.name, a, b)
                    compared += 1
        assert compared == 11231, compared

    def test_value_masks_match_the_definition(self):
        # The reference reads every map's value at every element off the
        # map's image array: the span of f(g) over every map f and every
        # generator g of N, the kernel filtered map by map, and the
        # submodules every endomorphism maps into themselves
        for m in [*small_modules(), *_rule_edge_cases()]:
            t = oracle._Tables(m)  # fresh, so no answer comes from another test's memo
            subs = {t.mask(s): s for s in all_submodules(m)}
            for k, sub in subs.items():
                maps = t.homs(m, k)
                images = [t.image(ys, m.inv_factors) for ys in maps]
                for x in range(len(t.elems)):
                    assert t.evaluate(maps, x) == [f[x] for f in images]
                    assert t.values(x, k) == sum({t.bit[f[x]] for f in images})
                kernel = range(len(t.elems))
                for f in images:
                    kernel = [x for x in kernel if f[x] == 0]
                assert brute_ann_left(m, sub) == t.package(sum(t.bit[x] for x in kernel)), m.name
                for n in subs:
                    want = t.span({f[g] for f in images for g in t.generators(n)})
                    assert t.product(n, k) == want, m.name
            endos = [t.image(ys, m.inv_factors) for ys in t.homs(m, t.full)]
            invariant = [s for s in t.lattice
                         if all(s >> f[g] & 1 for f in endos for g in t.generators(s))]
            assert t.fully_invariant() == invariant, m.name

    def test_a_budget_failure_stores_nothing(self, monkeypatch):
        m = direct_sum(z4(), z4())[0]
        a, full = cyclic_submodule(m, (1, 0)), Submodule.full(m)
        _tighten(monkeypatch, MAX_CANDIDATES=4)
        with pytest.raises(BudgetExceeded, match="^hom candidates: needs 16, budget 4$"):
            brute_product(m, a, full)
        assert [key[0] for key in oracle._tables(m).memo] == ["mask", "mask"]
        monkeypatch.undo()
        assert brute_product(m, a, full) == product(m, a, full)


class TestBruteLattice:
    def test_z6_count(self):
        assert len(brute_all_submodules(z6())) == 4

    def test_matches_main_path(self):
        for m in small_modules():
            got = sorted(brute_all_submodules(m), key=Submodule.sort_key)
            want = list(all_submodules(m))
            assert got == want

    def test_budget(self, monkeypatch):
        _tighten(monkeypatch, MAX_LATTICE=2)
        with pytest.raises(BudgetExceeded):
            brute_all_submodules(z6())


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

    def test_primes_leave_out_a_semiprime_that_is_not_prime(self):
        # 2Z6 * 3Z6 = 0, so <0> is semiprime in Z6 but not prime
        m = z6()
        two, three, zero = cyclic_submodule(m, (2,)), cyclic_submodule(m, (3,)), Submodule.zero(m)
        assert sorted(brute_primes(m), key=Submodule.sort_key) == [three, two]
        assert is_semiprime_submodule(m, zero)[0] and zero not in brute_primes(m)
        assert brute_primes(zero_mod := quotient_module(m, Submodule.full(m))[0]) == []
        assert brute_prime_radical(zero_mod).order == 1

    def test_primes_match_main_path(self):
        for m in small_modules():
            got = sorted(brute_primes(m), key=Submodule.sort_key)
            assert got == sorted(prime_radical(m).primes, key=Submodule.sort_key), m.name


def _corpus_modules(max_order):
    corpus = generate_corpus(0, budget=110)
    return list(dict.fromkeys(i.module for i in corpus.instances if i.module.order <= max_order))


def _shortcut_modules():
    """Every distinct seed-0 module of order at most 256, then the order-24
    witness and the modules of ``_rule_edge_cases``, none quasi-projective:
    on the witness and on the dual of F2[x,y]/(x,y)^2 nil differs from
    nilpotent."""
    _, witness = parse_instance(str(Path(__file__).resolve().parent / "golden" / "d-plus-z3.ring"))
    return [*_corpus_modules(256), witness, *_rule_edge_cases()]


class TestShortcutsMatchTheExhaustiveDefinitions:
    """The oracle skips work that its definitions decide; each eager form
    here skips nothing."""

    def test_one_span_per_unit_class(self):
        for m in _shortcut_modules():
            t = oracle._Tables(m)  # fresh, so no span comes from another test's memo
            assert t.cyclic == [t.span([a[x] for a in t.act]) for x in range(len(t.elems))], m.name

    def test_ell_joins_every_locally_nilpotent_member(self):
        for m in _shortcut_modules():
            t = oracle._tables(m)
            want = t.package(t.join(s for s in t.lattice if t.locally_nilpotent(s)))
            assert brute_ell(m) == want, m.name

    def test_prime_test_reads_the_whole_product_table(self):
        for m in _shortcut_modules():
            t = oracle._tables(m)
            fi = t.fully_invariant()
            below = {(n, k): t.product(n, k) for n in fi for k in fi}
            le = oracle._le
            primes = [p for p in fi if p != t.full and all(
                le(n, p) or le(k, p) or not le(q, p) for (n, k), q in below.items())]
            want = t.package(functools.reduce(operator.and_, primes)) if primes else Submodule.full(m)
            assert brute_prime_radical(m) == want, m.name


def _witness():
    return parse_instance(str(Path(__file__).resolve().parent / "golden" / "d-plus-z3.ring"))[1]


def _digit_sum(t, u, v):
    return t.index([a + b for a, b in zip(t.elems[u], t.elems[v])])


class TestSetAlgebra:
    """The tables' set algebra against the rules it abbreviates."""

    def test_join_adjoins_what_adjoining_every_member_adjoins(self):
        # the reference adjoins every member of the union in index order,
        # skipping those already spanned; join must reach the same mask
        # through the same generators
        compared = 0
        for m in [*_corpus_modules(64), _witness()]:
            t = oracle._Tables(m)
            lattice = t.lattice
            for a, b in itertools.product(lattice, repeat=2):
                members, gens = {0}, []
                for x in t.members(a | b):
                    if x not in members:
                        gens.append(x)
                        frontier = members
                        while frontier := {_digit_sum(t, h, x) for h in frontier} - members:
                            members |= frontier
                t.gens = {1: ()}
                want = sum(1 << x for x in members)
                assert t.join([a, b]) == want and t.gens[want] == tuple(gens), m.name
                compared += 1
        assert compared == 11143, compared

    def test_addition_rows_follow_the_digits(self):
        # rows built from rotated digits, on one, two and three factors
        ring4 = zn_ring(4)
        mods = [z4(), direct_sum(cyclic_module(ring4, 2), regular_module(ring4))[0],
                regular_module(triangular_ring(2, 2)), _witness()]
        assert [len(m.inv_factors) for m in mods] == [1, 2, 3, 3]
        for m in mods:
            t = oracle._Tables(m)
            n = len(t.elems)
            assert t.add == [[_digit_sum(t, u, v) for v in range(n)] for u in range(n)], m.name

    def test_homs_list_what_checking_every_relation_keeps(self):
        # every tuple of pool elements, filtered by every relation
        # b_i * g_j = sum_t a_i[t][j] g_t computed on digits; the search
        # skips the relations that hold of every map, so over Z/n all.
        # Pairs whose pools multiply past 4,096 are left out: 22 of 361,
        # all into submodules of the order-32 sum over T2(Z2)
        t2 = triangular_ring(2, 2)
        mods = [m for m in _corpus_modules(32) if m.ring.rank == 1 or m.ring == t2]
        # a basis element that fixes one side but not the other keeps its
        # relation: b_1 fixes R/<g0> over Z2 x Z6 but not R, and b_0 fixes
        # R/<g0+g1, 2*g1> over Z4 x Z6 but not R, where dropping it would
        # double Hom from 2 maps to 4 either way round
        r26, r46 = (regular_module(product_ring([zn_ring(a), zn_ring(b)])) for a, b in ((2, 6), (4, 6)))
        q26 = quotient_module(r26, Submodule.span(r26, [(1, 0)]))[0]
        q46 = quotient_module(r46, Submodule.span(r46, [(1, 1), (0, 2)]))[0]
        cross = [(q26, r26), (q46, r46), (r46, q46)]
        pairs = [(m, m, k) for m in mods for k in oracle._Tables(m).lattice]
        pairs += [(a, b, oracle._Tables(b).full) for a, b in cross]
        compared = 0
        for source, target, k in pairs:
            t = oracle._Tables(target)
            e, d = target.inv_factors, source.inv_factors
            pools = [[y for y in t.members(k) if not any(dj * c % o for c, o in zip(t.elems[y], e))]
                     for dj in d]
            if math.prod(map(len, pools)) > 2**12:
                continue

            def times(mat, y):
                return t.index([sum(map(operator.mul, row, t.elems[y])) for row in mat])

            def relations_hold(ys):
                for a, b in zip(source.actions, target.actions):
                    for j in range(len(d)):
                        lhs = 0
                        for row, y in zip(a, ys):
                            lhs = _digit_sum(t, lhs, t.index([row[j] * c for c in t.elems[y]]))
                        if lhs != times(b, ys[j]):
                            return False
                return True

            want = [ys for ys in itertools.product(*pools) if relations_hold(ys)]
            assert t.homs(source, k) == want, (source.name, target.name, k)
            compared += 1
        assert compared == 339 + 3, compared
        for (quot, reg), i in zip(cross, (1, 0)):
            tq, t = oracle._Tables(quot), oracle._Tables(reg)
            assert tq.act[i] == list(range(len(tq.elems))) and t.act[i] != list(range(len(t.elems)))
        assert [len(oracle._Tables(b).homs(a, oracle._Tables(b).full)) for a, b in cross] == [6, 2, 2]


def _s_square_quotients():
    """The 78 distinct nonzero quotients S^2/K, S = F2[x,y]/(x,y)^2: among
    their members are 23 that are locally nilpotent but not nilpotent."""
    reg = regular_module(_rule_edge_cases()[0].ring)
    square = direct_sum(reg, reg)[0]
    return list(dict.fromkeys(quotient_module(square, k)[0]
                              for k in all_submodules(square) if not k.is_full()))


class TestBruteLocallyNilpotent:
    def test_definitional_path_matches(self):
        # Every submodule of each distinct seed-0 corpus module of order at
        # most 256 (the oracle's order budget), then of each S^2/K, 23 of
        # whose members are locally nilpotent but not nilpotent.
        compared = {True: 0, False: 0}
        loc_not_nilpotent = 0
        for m in [*_corpus_modules(256), *_s_square_quotients()]:
            for s in all_submodules(m):
                try:
                    brute = brute_is_locally_nilpotent(m, s)
                except BudgetExceeded:
                    continue
                assert brute == is_locally_nilpotent(m, s), (m.name, s.describe())
                compared[brute] += 1
                loc_not_nilpotent += brute and nilpotency_index(m, s) is None
        assert sum(compared.values()) >= 1900 and min(compared.values()) >= 900, compared
        assert loc_not_nilpotent >= 23, loc_not_nilpotent


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

    def test_budget(self, monkeypatch):
        m = regular_module(triangular_ring(2, 2))
        _tighten(monkeypatch, MAX_CANDIDATES=4)
        with pytest.raises(BudgetExceeded):
            brute_ann_left(m, Submodule.full(m))
        monkeypatch.undo()
        _tighten(monkeypatch, MAX_LATTICE=2)
        with pytest.raises(BudgetExceeded):
            brute_ann_right(m, Submodule.full(m))

    def test_matches_main_path(self):
        # Every submodule of each distinct seed-0 corpus module of order at
        # most 256, on both sides, under the default budget.
        compared = {"left": 0, "right": 0}
        for m in _corpus_modules(256):
            for s in all_submodules(m):
                for side, brute, fast in (
                    ("left", brute_ann_left, ann_left),
                    ("right", brute_ann_right, ann_right),
                ):
                    assert brute(m, s) == fast(m, s), (m.name, s.describe(), side)
                    compared[side] += 1
        assert compared == {"left": 737, "right": 737}, compared


class TestBruteAnnihilatorLattice:
    def test_examples(self):
        assert [s.order for s in brute_annihilator_lattice(z4())] == [1, 2, 4]
        assert [s.order for s in brute_annihilator_lattice(z6())] == [1, 2, 3, 6]

    def test_budget(self, monkeypatch):
        m = regular_module(triangular_ring(2, 2))
        _tighten(monkeypatch, MAX_CANDIDATES=4)
        with pytest.raises(BudgetExceeded):
            brute_annihilator_lattice(m)

    def test_matches_main_path(self):
        # Every distinct seed-0 corpus module of order at most 256, under
        # the default budget: it bounds each level of the pruned enumeration,
        # not the product of the generator pools (2^36 for T3(Z2)-regular,
        # whose 64 endomorphisms are listed in milliseconds).
        compared = 0
        for m in _corpus_modules(256):
            brute = brute_annihilator_lattice(m)
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
        ideal = submodule_as_module(t2, Submodule.span(t2, [(0, 1, 0), (0, 0, 1)])).module
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
            brute = brute_is_retractable(m)
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
            brute = brute_fully_invariant_submodules(m)
            assert sorted(brute, key=Submodule.sort_key) == fully_invariant_submodules(m), m.name
            compared += 1
        assert compared == 107


def _recorded_covers(m):
    """The upper covers that the enumeration of m's lattice records."""
    all_submodules(m)
    return m.analysis.memos[lattice._lattice][DEFAULT_CAPS,][1]


class TestBruteCovers:
    def test_matches_main_path(self, oracle_scale_modules):
        # The cover relation of the oracle's lattice, read off element sets,
        # against the covers the enumeration records
        compared = 0
        for m in oracle_scale_modules:
            elements = {s: frozenset(s.subgroup.elements()) for s in brute_all_submodules(m)}
            covers = _recorded_covers(m)
            assert set(covers) == set(elements), m.name
            for x, xs in elements.items():
                above = [y for y, ys in elements.items() if xs < ys]
                want = {
                    y for y in above
                    if not any(xs < elements[z] < elements[y] for z in above)
                }
                assert set(covers[x]) == want, (m.name, x.describe())
                compared += 1
        assert compared == 966, compared


def _lifts_through(x, y, k):
    """Whether every map x -> y/k lifts to y."""
    quot, proj = quotient_module(y, k)
    onto = hom_group(x, quot)
    rows = [compose(proj, h).flatten() for h in hom_group(x, y).generators]
    return CanonicalSubgroup(onto.subgroup.moduli, rows).order == onto.order


def _quiver_sink_module():
    """The column module F2^3 of the path algebra of the quiver 1 -> 3 <- 2,
    the matrices with entries at (1,1), (2,2), (3,3), (3,1) and (3,2).  Its
    submodules are 0 < soc < U1, U2 < M; End(M) is the scalars."""
    units = [(0, 0), (1, 1), (2, 2), (2, 0), (2, 1)]
    ring = _matrix_units_ring(units, 2, "V3(Z2)")
    actions = [
        [[1 if (r, c) == unit else 0 for c in range(3)] for r in range(3)] for unit in units
    ]
    return module_from_actions(ring, (2, 2, 2), actions, name="V3(Z2) sink")


class TestBruteQuasiProjective:
    def test_lifting_loop_matches_every_quotient(self, oracle_scale_modules):
        # The reference lifts every map M -> M/K, for every K, 0 and M
        # included, and never splits a sum.  The split test over R/ann(M)
        # must agree with it on the oracle-scale modules, their M (+) M and
        # M (+) R of order <= 64, the quiver module, both rule edge cases
        # and the seven quotients of T2(Z2), the zero module among them; T2(Z2)/0
        # is T2(Z2) itself, so 132 distinct modules are compared.  A module
        # with more than 250 submodules is left out for time: that is Z2^6
        # alone, which agrees too but takes 8 s for its 2,825.
        caps, skipped = Caps(max_lattice=250), []
        t2 = regular_module(triangular_ring(2, 2))
        sums = [direct_sum(m, n)[0] for m in oracle_scale_modules
                for n in (m, regular_module(m.ring)) if m.order * n.order <= 64]
        quotients = [quotient_module(t2, k)[0] for k in all_submodules(t2)]
        modules = dict.fromkeys(
            [*oracle_scale_modules, *sums, _quiver_sink_module(), *_rule_edge_cases(), *quotients])
        compared = {True: 0, False: 0}
        for m in modules:
            try:
                members = all_submodules(m, caps)
            except CapExceeded:
                skipped.append(m.inv_factors)
                continue
            want = all(_lifts_through(m, m, k) for k in members)
            assert is_quasi_projective(m) == want, m.name
            compared[want] += 1
        assert len(quotients) == 7 and quotients[-1].order == 1 and skipped == [(2,) * 6]
        assert quotients[0] == t2 and quotients[0].analysis is t2.analysis
        assert compared == {True: 132, False: 21}, compared

    def test_meet_irreducible_quotients_do_not_decide(self):
        # M lifts to M/K for the three K with one upper cover (0, U1, U2),
        # yet M/soc = S1 (+) S2 has four endomorphisms and only the scalars
        # lift: projection onto S1 along S2 does not
        m = _quiver_sink_module()
        covers = _recorded_covers(m)
        single = [k for k in all_submodules(m) if len(covers[k]) == 1]
        assert [k.order for k in single] == [1, 4, 4]
        assert all(_lifts_through(m, m, k) for k in single)
        assert not _lifts_through(m, m, all_submodules(m)[1])
        assert not brute_is_quasi_projective(m)
        assert not is_quasi_projective(m)

    def test_examples(self):
        ring4 = zn_ring(4)
        assert brute_is_quasi_projective(z4())
        assert brute_is_quasi_projective(cyclic_module(ring4, 2))
        mixed, _, _ = direct_sum(cyclic_module(ring4, 2), regular_module(ring4))
        assert not brute_is_quasi_projective(mixed)
        zero_mod, _ = quotient_module(z4(), Submodule.full(z4()))
        assert brute_is_quasi_projective(zero_mod)

    def test_budget(self, monkeypatch):
        _tighten(monkeypatch, MAX_CANDIDATES=2)
        with pytest.raises(BudgetExceeded):
            brute_is_quasi_projective(z6())

    def test_matches_main_path(self, oracle_scale_modules):
        # every oracle-scale module, the small direct sums among them, and
        # T2(Z2)<e11, e12> (+) itself, whose 67 submodules each admit up to
        # 2^16 maps, fit in the default budget
        t2 = regular_module(triangular_ring(2, 2))
        row = submodule_as_module(t2, Submodule.span(t2, [(1, 0, 0), (0, 1, 0)])).module
        compared = {True: 0, False: 0}
        for m in [*oracle_scale_modules, direct_sum(row, row)[0]]:
            brute = brute_is_quasi_projective(m)
            assert brute == is_quasi_projective(m), m.name
            compared[brute] += 1
        assert compared == {True: 95, False: 13}, compared
        assert not all(is_quasi_projective(m) for m in _small_direct_sums())

    def test_sum_is_split_into_relative_projectivity(self):
        # Over Z4, Z4 is Z2-projective and Z2 is Z2-projective, but Z2 is not
        # Z4-projective, so Z2 (+) Z4 is not quasi-projective: the summand
        # rule over the sum's annihilator, 0, finds Z2 not projective over Z4
        ring4 = zn_ring(4)
        two, four = cyclic_module(ring4, 2), regular_module(ring4)
        mixed, _, _ = direct_sum(two, four)
        a, b, leaves = algebra._SUMMANDS[mixed]
        assert (a, b) == (two, four) == tuple(p.target for p in leaves)
        assert all(_lifts_through(four, two, k) and _lifts_through(two, two, k)
                   for k in all_submodules(two))
        assert not all(_lifts_through(two, four, k) for k in all_submodules(four))
        ann = lattice._annihilator(mixed)
        assert ann.order == 1
        assert lattice._is_projective_over(four, ann)
        assert not lattice._is_projective_over(two, ann)
        assert not is_quasi_projective(mixed) and not lattice._splits(mixed, ann)
        assert mixed.analysis.memos[is_quasi_projective][()] is False
