"""Submodule lattices, fully invariant members, and module predicates."""

import itertools
import time

import pytest

from finmod import algebra, lattice
from finmod.algebra import (
    FiniteModule,
    FiniteRing,
    ModuleAnalysis,
    clear_analyses,
    cyclic_module,
    direct_sum,
    matrix_ring,
    module_from_actions,
    opposite_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    validate_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS, Caps, CapExceeded
from finmod.harness import generate_corpus
from finmod.homspace import HomGroup, end_ring
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    _join_irreducible,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    is_goldie,
    is_quasi_projective,
    is_retractable,
    socle,
    submodule_as_module,
    uniform_dimension,
)
from finmod.oracle import (
    brute_fully_invariant_submodules,
    brute_is_quasi_projective,
    brute_is_retractable,
)


def brute_action_closed_subgroups(module):
    """Element-set closure, independent of the canonical-form machinery."""
    elems = list(itertools.product(*map(range, module.inv_factors)))
    ring_elems = list(itertools.product(*map(range, module.ring.add_orders)))

    def close(seed):
        group = {tuple(0 for _ in module.inv_factors)}
        frontier = list(seed)
        for v in frontier:
            group.add(v)
        frontier = list(group)
        while frontier:
            cur = frontier.pop()
            for other in list(group):
                s = tuple(
                    (a + b) % d
                    for a, b, d in zip(cur, other, module.inv_factors)
                )
                if s not in group:
                    group.add(s)
                    frontier.append(s)
            for r in ring_elems:
                img = module.act_coeffs(r, cur)
                if img not in group:
                    group.add(img)
                    frontier.append(img)
        return frozenset(group)

    found = {close([])}
    frontier = list(found)
    while frontier:
        cur = frontier.pop()
        for x in elems:
            if x in cur:
                continue
            bigger = close(list(cur) + [x])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return found


class TestCyclic:
    def test_zero(self):
        m = regular_module(zn_ring(4))
        assert cyclic_submodule(m, (0,)).is_zero()

    def test_two_in_z4(self):
        m = regular_module(zn_ring(4))
        c = cyclic_submodule(m, (2,))
        assert c.order == 2 and c.contains((2,))

    def test_e12_in_triangular(self):
        m = regular_module(triangular_ring(2, 2))
        c = cyclic_submodule(m, (0, 1, 0))
        assert c.order == 2
        assert sorted(c.subgroup.elements()) == [(0, 0, 0), (0, 1, 0)]

    def test_one_span_per_additive_cyclic_subgroup(self):
        # distinct_cyclic_submodules spans one element of each additive
        # cyclic subgroup; the reference spans every element.  Checked on
        # the distinct seed-0 modules, each ring's R (+) R of order <= 256,
        # and End(Z5^2)^op-regular (625 elements, 157 cyclic subgroups).
        corpus = generate_corpus(0, budget=110)
        modules = list(dict.fromkeys(i.module for i in corpus.instances))
        for ring in dict.fromkeys(m.ring for m in modules):
            if ring.order ** 2 <= 256:
                modules.append(direct_sum(regular_module(ring), regular_module(ring))[0])
        z5 = regular_module(zn_ring(5))
        end = end_ring(direct_sum(z5, z5)[0]).as_ring
        modules.append(regular_module(opposite_ring(end)))
        for m in modules:
            every = dict.fromkeys(cyclic_submodule(m, x)
                                  for x in itertools.product(*map(range, m.inv_factors)))
            assert distinct_cyclic_submodules(m) == sorted(every, key=Submodule.sort_key), m.name
        assert len(modules) > 110 and modules[-1].order == 625


class TestAllSubmodules:
    def test_z6_divisor_lattice(self):
        lat = all_submodules(regular_module(zn_ring(6)))
        assert len(lat) == 4
        assert [s.order for s in lat] == [1, 2, 3, 6]

    def test_z4(self):
        lat = all_submodules(regular_module(zn_ring(4)))
        assert len(lat) == 3

    def test_f2_plane(self):
        m = regular_module(zn_ring(2))
        sq, _, _ = direct_sum(m, m)
        lat = all_submodules(sq)
        assert len(lat) == 5

    def test_triangular_left_ideals(self):
        lat = all_submodules(regular_module(triangular_ring(2, 2)))
        assert len(lat) == 7

    def test_matches_brute_closure(self):
        for module in [
            regular_module(zn_ring(12)),
            regular_module(triangular_ring(2, 2)),
            cyclic_module(zn_ring(8), 4),
        ]:
            lat = all_submodules(module)
            brute = brute_action_closed_subgroups(module)
            assert len(lat) == len(brute)
            as_sets = {frozenset(s.subgroup.elements()) for s in lat}
            assert as_sets == brute

    def test_closed_under_join_meet(self):
        lat = all_submodules(regular_module(triangular_ring(2, 2)))
        members = set(lat)
        for a in lat:
            for b in lat:
                assert a.sum(b) in members
                assert a.intersect(b) in members

    def test_cap(self):
        m = regular_module(zn_ring(2))
        sq, _, _ = direct_sum(m, m)
        with pytest.raises(CapExceeded):
            all_submodules(sq, Caps(max_lattice=3))

    def test_fourth_powers_of_simple_modules(self):
        # Z2^4 over Z2 and M2(Z2)^2 over M2(Z2) are both S^4 for a simple S
        # with End(S) = F2, so each lattice is that of the subspaces of F2^4:
        # 1 + 15 + 35 + 15 + 1 members
        z2 = regular_module(zn_ring(2))
        z2_4 = z2
        for _ in range(3):
            z2_4 = direct_sum(z2_4, z2)[0]
        m2 = regular_module(matrix_ring(2, 2))
        for m in (z2_4, direct_sum(m2, m2)[0]):
            assert len(all_submodules(m)) == 67, m.name

    def test_free_triangular_cube_fails_fast(self):
        # T2(Z2)^3 (order 512) has 5,928 submodules, past the default cap
        r = regular_module(triangular_ring(2, 2))
        cube = direct_sum(direct_sum(r, r)[0], r)[0]
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            all_submodules(cube)
        assert time.perf_counter() - start < 20
        assert exc.value.what == "lattice members"
        assert not cube.analysis.memos[lattice._lattice]

    def test_free_triangular_cube_count_under_a_raised_cap(self):
        # As a representation of the A2 quiver T2(Z2)^3 has
        # sum_j [3 choose j]_2 * G(6 - j) submodules, G(n) the number of
        # subspaces of F2^n: 1*2825 + 7*374 + 7*67 + 1*16 = 5,928
        r = regular_module(triangular_ring(2, 2))
        cube = direct_sum(direct_sum(r, r)[0], r)[0]
        caps = Caps(max_lattice=6000)
        try:
            assert len(all_submodules(cube, caps)) == 5928
        finally:
            # analyses are shared by the whole run, and another test asks
            # that the cube's lattice stay unlisted
            for fn in (lattice._lattice, lattice._irreducibles, lattice._cyclics):
                cube.analysis.memos[fn].pop((caps,), None)


class TestJoinIrreducibles:
    def test_irreducibles_and_their_largest_proper_submodules(self):
        # A cyclic is join-irreducible iff the sum of all the cyclics
        # strictly below it is smaller; that sum is then its largest proper
        # submodule, and the irreducible comes with the element it was
        # spanned from.  Checked against every distinct seed-0 module.
        corpus = generate_corpus(0, budget=110)
        counts = [0, 0]
        for m in dict.fromkeys(i.module for i in corpus.instances):
            spans = lattice._cyclics(m, DEFAULT_CAPS)
            irreducibles = lattice._irreducibles(m, DEFAULT_CAPS)
            cyclics = distinct_cyclic_submodules(m)
            assert list(spans) == cyclics and all(cyclic_submodule(m, x) == c for c, x in spans.items())
            want = []
            for c in cyclics[1:]:
                below = Submodule.zero(m)
                for d in cyclics:
                    if d.lt(c):
                        below = below.sum(d)
                if below != c:
                    want.append((c, below, spans[c]))
            assert irreducibles == _join_irreducible(spans) == want, m.name
            counts[0] += len(want)
            counts[1] += len(cyclics) - 1
        assert counts == [355, 521], counts


def _power(module, n):
    total = module
    for _ in range(n - 1):
        total = direct_sum(total, module)[0]
    return total


def _cold_builds(module, monkeypatch, walk):
    """A copy of the module with an analysis of its own, and the subgroup
    builds that ``walk`` makes on it.  The walks' shared input, the distinct
    cyclics (one span per additive cyclic subgroup) and their
    join-irreducibles (one C- each), is listed before the count starts."""
    cold = FiniteModule(*module)
    cold.analysis = ModuleAnalysis()
    lattice._irreducibles(cold, DEFAULT_CAPS)
    count, init = [0], CanonicalSubgroup.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(CanonicalSubgroup, "__init__", counting)
    walk(cold)
    monkeypatch.undo()
    return cold, count[0]


class TestBuildsPerEdge:
    # The walk builds each cover once; the fully invariant walk also builds
    # the End-closures of the join-irreducible cyclics, their C- and End(M)
    # itself: at most 2 builds per Hasse edge.  Forming each cover once per
    # join-irreducible that yields it made 3.3 to 6.6 builds per edge on
    # these modules.  F_q^n has sum_k G(n, k) [n - k choose 1]_q edges, G(n, k)
    # the Gaussian binomial: 2,077 for F_2^5 and 1,120 for F_3^4.
    @pytest.mark.parametrize("ring, n, edges", [(zn_ring(2), 5, 2077), (zn_ring(3), 4, 1120),
                                                (triangular_ring(2, 2), 2, 414)])
    def test_all_submodules(self, monkeypatch, ring, n, edges):
        cold, builds = _cold_builds(_power(regular_module(ring), n), monkeypatch, all_submodules)
        assert sum(map(len, lattice._lattice(cold, DEFAULT_CAPS)[1].values())) == edges
        assert builds <= 2 * edges, builds

    def test_fully_invariant_submodules(self, monkeypatch):
        # T3(Z2) over itself: its 14 two-sided ideals, edges counted from
        # their order relation
        cold, builds = _cold_builds(regular_module(triangular_ring(3, 2)), monkeypatch,
                                    fully_invariant_submodules)
        fis = fully_invariant_submodules(cold)
        edges = sum(1 for a in fis for b in fis
                    if a.lt(b) and not any(a.lt(c) and c.lt(b) for c in fis))
        assert len(fis) == 14 and edges == 21 and builds <= 2 * edges, builds


class TestFullyInvariant:
    def test_z4_all_members(self):
        m = regular_module(zn_ring(4))
        assert len(fully_invariant_submodules(m)) == 3

    def test_simple_matrix_ring(self):
        m = regular_module(matrix_ring(2, 2))
        fis = fully_invariant_submodules(m)
        assert [s.order for s in fis] == [1, 16]

    def test_triangular_two_sided_ideals(self):
        m = regular_module(triangular_ring(2, 2))
        fis = fully_invariant_submodules(m)
        assert [s.order for s in fis] == [1, 2, 4, 4, 8]
        j = cyclic_submodule(m, (0, 1, 0))
        assert j in fis

    def test_closed_under_sum_and_meet(self):
        m = regular_module(triangular_ring(2, 2))
        fis = fully_invariant_submodules(m)
        for a in fis:
            for b in fis:
                assert a.sum(b) in fis
                assert a.intersect(b) in fis


class TestSocleUdim:
    def test_z4(self):
        m = regular_module(zn_ring(4))
        assert uniform_dimension(m) == 1
        assert socle(m) == cyclic_submodule(m, (2,))

    def test_z6(self):
        m = regular_module(zn_ring(6))
        assert uniform_dimension(m) == 2
        assert socle(m).is_full()

    def test_zero_module(self):
        m = regular_module(zn_ring(4))
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        assert uniform_dimension(zero_mod) == 0

    def test_triangular(self):
        m = regular_module(triangular_ring(2, 2))
        assert uniform_dimension(m) == 2
        assert socle(m).order == 4

    def test_additive_over_direct_sums(self):
        ring = zn_ring(4)
        for a, b in [
            (regular_module(ring), regular_module(ring)),
            (cyclic_module(ring, 2), regular_module(ring)),
        ]:
            d, _, _ = direct_sum(a, b)
            assert uniform_dimension(d) == uniform_dimension(a) + uniform_dimension(b)

    def test_socle_essential(self):
        for module in [
            regular_module(zn_ring(12)),
            regular_module(triangular_ring(2, 2)),
        ]:
            soc = socle(module)
            for s in all_submodules(module):
                if not s.is_zero():
                    assert not soc.intersect(s).is_zero()


def _max_independent_family(module):
    """Definitional uniform dimension: largest family of nonzero submodules
    whose sum is direct, found by exhaustive search."""
    import itertools

    members = [s for s in all_submodules(module) if not s.is_zero()]
    best = 0
    for size in range(1, len(members) + 1):
        found = False
        for family in itertools.combinations(members, size):
            ok = True
            for i, n_sub in enumerate(family):
                rest = Submodule.zero(module)
                for j, other in enumerate(family):
                    if i != j:
                        rest = rest.sum(other)
                if not n_sub.intersect(rest).is_zero():
                    ok = False
                    break
            if ok:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


class TestDefinitionalUdim:
    def test_matches_socle_length(self):
        ring4 = zn_ring(4)
        modules = [
            regular_module(zn_ring(6)),
            regular_module(zn_ring(12)),
            regular_module(ring4),
            regular_module(triangular_ring(2, 2)),
            regular_module(matrix_ring(2, 2)),
            direct_sum(cyclic_module(ring4, 2), regular_module(ring4))[0],
            direct_sum(regular_module(zn_ring(2)), regular_module(zn_ring(2)))[0],
        ]
        for m in modules:
            assert len(all_submodules(m)) <= 64
            assert uniform_dimension(m) == _max_independent_family(m)


class TestAnnihilatorLattice:
    def test_z4(self):
        m = regular_module(zn_ring(4))
        ann = annihilator_lattice(m)
        assert [s.order for s in ann] == [1, 2, 4]

    def test_contained_in_lattice_with_endpoints(self):
        for m in [
            regular_module(zn_ring(12)),
            regular_module(triangular_ring(2, 2)),
        ]:
            lat = set(all_submodules(m))
            ann = annihilator_lattice(m)
            assert set(ann) <= lat
            # kernel of the identity and the empty intersection
            assert Submodule.zero(m) in ann
            assert Submodule.full(m) in ann

    def test_simple(self):
        m = regular_module(zn_ring(3))
        ann = annihilator_lattice(m)
        assert [s.order for s in ann] == [1, 3]

    def test_z6(self):
        m = regular_module(zn_ring(6))
        ann = annihilator_lattice(m)
        assert [s.order for s in ann] == [1, 2, 3, 6]

    def test_sizes_of_larger_modules(self):
        t2 = regular_module(triangular_ring(2, 2))
        assert len(annihilator_lattice(regular_module(matrix_ring(2, 4)))) == 15
        assert len(annihilator_lattice(direct_sum(t2, t2)[0])) == 67

    def test_enumerates_no_endomorphism(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Hom elements enumerated")

        monkeypatch.setattr(HomGroup, "elements", refuse)
        # caps of their own, so nothing comes from the memo
        caps = Caps(max_lattice=4999)
        t2 = regular_module(triangular_ring(2, 2))
        assert len(annihilator_lattice(direct_sum(t2, t2)[0], caps)) == 67
        assert len(annihilator_lattice(regular_module(zn_ring(12)), caps)) == 6

    def test_end_cap_is_checked_before_the_lattice(self):
        # End(Z2^5) = M5(Z2) has 2^25 elements: the size is not reported,
        # and the 374-member lattice is never listed
        reg = regular_module(zn_ring(2))
        m = reg
        for _ in range(4):
            m = direct_sum(m, reg)[0]
        with pytest.raises(CapExceeded) as exc:
            annihilator_lattice(m)
        assert exc.value.what == "endomorphism count"
        assert is_goldie(m).annihilator_lattice_size is None
        assert not m.analysis.memos[lattice._lattice]


def _rule_edge_cases():
    """Two modules no seed-0 construction gives.  The dual of
    S = F2[x,y]/(x,y)^2 is faithful of order |S| but not cyclic, and not
    quasi-projective.  B (+) B/soc(B), for the ideal B = T2(Z2)e22, is not
    retractable although its summand B/soc(B) is."""
    ring = validate_ring(FiniteRing(
        (2, 2, 2),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
         ((0, 0, 1), (0, 0, 0), (0, 0, 0))),
        (1, 0, 0), ("1", "x", "y"), "F2[x,y]/(x,y)^2"))
    # basis 1*, x*, y*: x sends x* to 1*, y sends y* to 1*
    dual = module_from_actions(ring, (2, 2, 2), [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ], name="dual of F2[x,y]/(x,y)^2")
    t2 = regular_module(triangular_ring(2, 2))
    ideal = submodule_as_module(t2, cyclic_submodule(t2, (0, 0, 1))).module
    return dual, direct_sum(ideal, quotient_module(ideal, socle(ideal))[0])[0]


def _zero_square(ring):
    """The zero module R^2/R^2."""
    free = regular_module(ring)
    square = direct_sum(free, free)[0]
    return quotient_module(square, Submodule.full(square))[0]


def _maps_onto_simples(module, caps):
    """The reference for retractability: each nonzero submodule contains a
    simple S, and a nonzero map into S is one into it, so nonzero maps onto
    the simples S suffice.  One Hom solve per simple submodule."""
    from finmod.homspace import hom_group

    return all(
        hom_group(module, submodule_as_module(module, s).module).order > 1
        for s in _simple_submodules(module, caps)
    )


def _simple_submodules(module, caps):
    """The simple submodules: the join-irreducible cyclics with C- = 0, in
    canonical order."""
    return [c for c, floor, _ in lattice._irreducibles(module, caps) if floor.is_zero()]


def _lifts_to_quotients(x, y, caps):
    """The plain lifting test: whether every map x -> y/K lifts to y, for
    every K <= y in the lattice ``caps`` allow.  It never splits a sum."""
    from finmod.algebra import compose
    from finmod.homspace import hom_group

    gens = hom_group(x, y).generators
    for k_sub in all_submodules(y, caps):
        quot, proj = quotient_module(y, k_sub)
        onto = hom_group(x, quot).subgroup
        rows = [compose(proj, h).flatten() for h in gens]
        if CanonicalSubgroup(onto.moduli, rows).order != onto.order:
            return False
    return True


class TestPredicates:
    def test_retractable_examples(self):
        assert is_retractable(regular_module(zn_ring(4)))
        assert is_retractable(regular_module(triangular_ring(2, 2)))
        assert is_retractable(cyclic_module(zn_ring(4), 2))

    def test_retractability_solves_no_hom_out_of_the_module(self, monkeypatch):
        # Under fresh caps, on each distinct seed-0 module M, retractability
        # calls hom_group only as End(R_R), while it lists the two-sided
        # ideals of R, and only for the first module over each ring: never
        # with M as the source, unless M is R_R.  A module that acts like
        # one answered before, over another ring, reads its answer.
        modules = dict.fromkeys(i.module for i in generate_corpus(0, budget=110).instances)
        calls, real = [], lattice.hom_group
        monkeypatch.setattr(lattice, "hom_group", lambda a, b: calls.append((a, b)) or real(a, b))
        caps, listed, shared = Caps(max_lattice=4991), set(), 0  # caps of their own, so no ideal is listed yet
        for m in modules:
            free = regular_module(m.ring)
            calls.clear()
            answered = (caps,) in m.analysis.memos[is_retractable]
            is_retractable(m, caps)
            assert calls == ([] if answered or m.ring in listed else [(free, free)]), m.name
            if answered:
                shared += 1
            else:
                listed.add(m.ring)
        assert (len(listed), shared) == (41, 20), (len(listed), shared)

    def test_quasi_projective_prime_power(self):
        assert is_quasi_projective(regular_module(zn_ring(8)))
        assert is_quasi_projective(cyclic_module(zn_ring(8), 4))

    def test_regular_modules_quasi_projective(self):
        assert is_quasi_projective(regular_module(triangular_ring(2, 2)))
        assert is_quasi_projective(regular_module(matrix_ring(2, 2)))

    def test_mixed_sum_not_quasi_projective(self):
        ring = zn_ring(4)
        d, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
        assert not is_quasi_projective(d)

    def test_lifting_against_own_powers_matches_quasi_projectivity(self):
        # The paper assumes M is M^(L)-projective for every index set L; for
        # a finitely generated M that is quasi-projectivity.  The plain
        # lifting loop, which never splits a sum, checks M (+) M and M^3 of
        # the distinct seed-0 modules, up to order 64 and 250 submodules.
        caps = Caps(max_lattice=250)
        corpus = generate_corpus(0, budget=110)
        compared = {True: 0, False: 0}
        for m in dict.fromkeys(i.module for i in corpus.instances):
            power = m
            for _ in range(2):
                power = direct_sum(power, m)[0]
                if power.order > 64:
                    break
                try:
                    lifts = _lifts_to_quotients(m, power, caps)
                except CapExceeded:
                    continue
                assert lifts == is_quasi_projective(m), (m.name, power.order)
                compared[lifts] += 1
        assert compared[True] >= 60 and compared[False] >= 1, compared

    def test_goldie_profile(self):
        m = regular_module(zn_ring(4))
        profile = is_goldie(m)
        assert profile.is_goldie
        assert profile.is_quasi_projective
        assert profile.is_retractable
        assert profile.uniform_dim == 1
        assert profile.annihilator_lattice_size == 3

    def test_goldie_profile_reads_its_lazy_fields_on_demand(self):
        # uniform_dim and annihilator_lattice_size are computed on first
        # read and equal their functions, or None past the End cap
        corpus = generate_corpus(0, budget=110)
        reg = regular_module(zn_ring(2))
        free4 = direct_sum(direct_sum(direct_sum(reg, reg)[0], reg)[0], reg)[0]
        modules = [*dict.fromkeys(i.module for i in corpus.instances), free4]
        sizes = set()
        for m in modules:
            profile = is_goldie(m)
            assert {"uniform_dim", "annihilator_lattice_size"}.isdisjoint(vars(profile))
            assert profile.uniform_dim == uniform_dimension(m), m.name
            try:
                want = len(annihilator_lattice(m))
            except CapExceeded:
                want = None
            assert profile.annihilator_lattice_size == want, m.name
            sizes.add(want)
        assert None in sizes and len(sizes) > 5

    def test_goldie_profile_repr_lists_every_field(self):
        ring = zn_ring(4)
        d, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
        assert repr(is_goldie(d)) == (
            "PredicateProfile(is_quasi_projective=False, is_retractable=True, "
            "is_goldie=True, uniform_dim=2, annihilator_lattice_size=8)"
        )

    def test_corpus_lists_no_annihilator_lattice(self):
        # Neither verify nor search reads the annihilator lattice, so the
        # corpus does not build it
        clear_analyses()
        corpus = generate_corpus(0, budget=110)
        assert not any(i.module.analysis.memos[lattice._annihilators] for i in corpus.instances)

    def test_retractability_and_construction_rules_agree_with_the_general_paths(self):
        # On every distinct seed-0 module M, each M (+) M and M (+) R of
        # order <= 256, the two edge cases and the zero modules R^2/R^2:
        # quasi-projectivity, with its summand rule, agrees with the split
        # test over R/ann(M) on the whole module; retractability, read off
        # the maximal ideals of R, agrees with one Hom solve into each simple
        # submodule (``_maps_onto_simples``), and a sum's fully invariant
        # lattice with the End-closures.  The oracle agrees with
        # retractability and the fully invariant lattice up to order 64
        caps = Caps(max_lattice=4995)  # caps of their own, so nothing comes from the memo
        modules = dict.fromkeys(i.module for i in generate_corpus(0, budget=110).instances)
        sums = dict.fromkeys(
            direct_sum(m, n)[0] for m in modules for n in (m, regular_module(m.ring))
            if m.order * n.order <= 256
        )
        zeros = [_zero_square(r) for r in (zn_ring(4), triangular_ring(2, 2), matrix_ring(2, 2))]
        # Z2^6, Z4^3 and the two (Z2 (+) Z4)^2: the oracle's Hom search
        # needs 2^18 or 2^20 candidates, past its budget of 2^16
        beyond_oracle = {
            "Z2 regular (+) Z2 regular (+) Z2 regular (+) Z2 regular (+) Z2 regular (+) Z2 regular",
            "Z4 regular (+) Z4 regular (+) Z4 regular",
            "Z2 (+) Z4 regular (+) Z2 (+) Z4 regular",
            "Z2 (+) Z4 (+) Z2 (+) Z4",
        }
        compared, left_out = 0, set()
        for m in [*modules, *sums, *_rule_edge_cases(), *zeros]:
            assert is_quasi_projective(m) == lattice._splits(m, lattice._annihilator(m)), m.name
            retractable = is_retractable(m, caps)
            assert retractable == _maps_onto_simples(m, caps), m.name
            fi = fully_invariant_submodules(m, caps)
            if m in sums:
                assert fi == sorted(lattice._end_closures(m, caps), key=Submodule.sort_key), m.name
            if m.name in beyond_oracle:
                left_out.add(m.name)
            elif m.order <= 64:
                assert brute_is_retractable(m) == retractable, m.name
                assert set(brute_fully_invariant_submodules(m)) == set(fi), m.name
                compared += 1
        assert len(modules) == 97 and len(sums) == 103
        assert left_out == beyond_oracle and compared == 160, compared
        dual, mixed = _rule_edge_cases()
        assert not is_quasi_projective(dual) and not is_retractable(mixed, caps)
        assert all(is_retractable(z, caps) for z in zeros)

    def test_quasi_projectivity_lists_no_lattice(self, monkeypatch):
        # The split test over R/ann(M) answers with lattice enumeration
        # refused: on the distinct seed-0 modules, the regular modules of
        # their rings of order <= 256 (each also checked by the oracle), on
        # T2(Z2)^3, and on two quotients of it by a simple submodule, of
        # order 256, neither a recorded sum nor R/ann(M).  The lifting test
        # over their lattices (up to 20,000 members) gives the same answers.
        clear_analyses()
        modules = dict.fromkeys(i.module for i in generate_corpus(0, budget=110).instances)
        regulars = [regular_module(r) for r in dict.fromkeys(m.ring for m in modules) if r.order <= 256]
        assert len(regulars) == 42 and all(brute_is_quasi_projective(r) for r in regulars)
        t2 = regular_module(triangular_ring(2, 2))
        cube = direct_sum(direct_sum(t2, t2)[0], t2)[0]
        g7, g6 = (quotient_module(cube, s)[0] for s in _simple_submodules(cube, DEFAULT_CAPS)[:2])

        def refuse(*args):
            raise AssertionError("a lattice was enumerated")

        monkeypatch.setattr(lattice, "all_submodules", refuse)
        monkeypatch.setattr(lattice, "_join_closure", refuse)
        everything = [*modules, *regulars, cube, g7, g6]
        assert not any(m.analysis.memos[is_quasi_projective] for m in everything)  # none from the memo
        answers = [is_quasi_projective(m) for m in modules]
        assert len(modules) == 97 and sum(answers) == 86
        assert all(is_quasi_projective(r) for r in regulars) and is_quasi_projective(cube)
        for quotient, want in ((g7, False), (g6, True)):
            assert quotient.order == 256 and quotient not in algebra._SUMMANDS
            assert is_quasi_projective(quotient) == want

    def test_projectivity_relative_to_a_free_module_is_one_split_test(self, monkeypatch):
        # x is R-projective iff a free cover of x splits: the split test over
        # R itself (the zero ideal) runs with lattice enumeration refused,
        # and agrees with the lifting test against R's quotients on every
        # distinct seed-0 module
        modules = dict.fromkeys(i.module for i in generate_corpus(0, budget=110).instances)
        caps = Caps(max_lattice=4994)  # caps of their own, so nothing comes from the memo
        real = lattice.all_submodules

        def refuse(*args):
            raise AssertionError("a lattice was enumerated")

        projective = 0
        for m in modules:
            zero = CanonicalSubgroup(m.ring.add_orders, [])
            monkeypatch.setattr(lattice, "all_submodules", refuse)
            split = lattice._splits(m, zero)
            monkeypatch.setattr(lattice, "all_submodules", real)
            assert split == _lifts_to_quotients(m, regular_module(m.ring), caps), m.name
            projective += split
        assert len(modules) == 97 and 0 < projective < 97

    def test_goldie_profile_mixed(self):
        ring = zn_ring(4)
        d, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
        profile = is_goldie(d)
        assert profile.is_goldie and not profile.is_quasi_projective

    def test_goldie_profile_of_free_triangular_cube_without_its_lattice(self):
        # T2(Z2)^3 has order 512; retractability needs only the two-sided
        # ideals of T2(Z2), the uniform dimension its simple submodules,
        # quasi-projectivity its summands and its annihilator
        r = regular_module(triangular_ring(2, 2))
        cube = direct_sum(direct_sum(r, r)[0], r)[0]
        start = time.perf_counter()
        profile = is_goldie(cube)
        assert time.perf_counter() - start < 20
        assert profile.is_retractable and profile.is_quasi_projective
        assert profile.uniform_dim == 6
        assert profile.annihilator_lattice_size is None
        assert not cube.analysis.memos[lattice._lattice]


class TestSubmoduleAsModule:
    def test_round_trip(self):
        m = regular_module(triangular_ring(2, 2))
        for s in all_submodules(m):
            emb = submodule_as_module(m, s)
            assert emb.module.order == s.order
            # inclusion is injective with image s
            inner = itertools.product(*map(range, emb.module.inv_factors))
            imgs = {emb.inclusion.apply_vec(x) for x in inner}
            assert imgs == set(s.subgroup.elements())

    def test_coords_inverse_of_inclusion(self):
        m = regular_module(zn_ring(8))
        s = cyclic_submodule(m, (2,))
        emb = submodule_as_module(m, s)
        for x in itertools.product(*map(range, emb.module.inv_factors)):
            back = emb.subgroup.coords(emb.inclusion.apply_vec(x))
            assert back == x


def _subgroups(answer):
    """A ``_lattice`` answer as subgroups: the members in order, and each
    member's set of covers."""
    members, covers = answer
    return [x.subgroup for x in members], {x.subgroup: {y.subgroup for y in ys}
                                           for x, ys in covers.items()}


class TestLatticeFromAmbient:
    """A submodule K presented as a module walks its own lattice, so only
    its own member count, never its ambient's, meets a cap."""

    def _plane(self):
        """A plane K of F_2^3, whose 5 members lie among the ambient 16."""
        m = _power(regular_module(zn_ring(2)), 3)
        return m, next(k for k in all_submodules(m) if k.order == 4)

    def test_ambient_over_the_cap(self):
        m, k = self._plane()
        small = Caps(max_lattice=10)
        with pytest.raises(CapExceeded):
            all_submodules(m, small)
        sub = submodule_as_module(m, k).module
        assert _subgroups(lattice._lattice(sub, small)) == _subgroups(lattice._lattice(sub, DEFAULT_CAPS))
        assert len(all_submodules(sub, small)) == 5

    def test_child_over_the_cap(self):
        m, k = self._plane()
        tiny = Caps(max_lattice=4)
        sub = submodule_as_module(m, k).module
        with pytest.raises(CapExceeded) as walked:
            all_submodules(sub, tiny)
        assert str(walked.value) == "lattice members: reached 4 with cap 4"
