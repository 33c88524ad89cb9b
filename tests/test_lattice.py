"""Submodule lattices, fully invariant members, and module predicates."""

import time

import pytest

from finmod.algebra import (
    analysis,
    cyclic_module,
    direct_sum,
    matrix_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import Caps, CapExceeded
from finmod.harness import generate_corpus
from finmod.lattice import (
    Submodule,
    _lifts_to_quotients,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    is_goldie,
    is_quasi_projective,
    is_retractable,
    socle,
    submodule_as_module,
    uniform_dimension,
)


def brute_action_closed_subgroups(module):
    """Element-set closure, independent of the canonical-form machinery."""
    elems = [x.coeffs for x in module.elements()]
    ring_elems = [r.coeffs for r in module.ring.elements()]

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
        assert sorted(e.coeffs for e in c.elements()) == [(0, 0, 0), (0, 1, 0)]


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
            as_sets = {frozenset(e.coeffs for e in s.elements()) for s in lat}
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


class TestPredicates:
    def test_retractable_examples(self):
        assert is_retractable(regular_module(zn_ring(4)))
        assert is_retractable(regular_module(triangular_ring(2, 2)))
        assert is_retractable(cyclic_module(zn_ring(4), 2))

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

    def test_goldie_profile_mixed(self):
        ring = zn_ring(4)
        d, _, _ = direct_sum(cyclic_module(ring, 2), regular_module(ring))
        profile = is_goldie(d)
        assert profile.is_goldie and not profile.is_quasi_projective

    def test_goldie_profile_of_free_triangular_cube_without_its_lattice(self):
        # T2(Z2)^3 has order 512; retractability and the uniform dimension
        # need only its simple submodules, quasi-projectivity its summands
        r = regular_module(triangular_ring(2, 2))
        cube = direct_sum(direct_sum(r, r)[0], r)[0]
        start = time.perf_counter()
        profile = is_goldie(cube)
        assert time.perf_counter() - start < 20
        assert profile.is_retractable and profile.is_quasi_projective
        assert profile.uniform_dim == 6
        assert profile.annihilator_lattice_size is None
        assert not analysis(cube).lattice


class TestSubmoduleAsModule:
    def test_round_trip(self):
        m = regular_module(triangular_ring(2, 2))
        for s in all_submodules(m):
            emb = submodule_as_module(s)
            assert emb.module.order == s.order
            # inclusion is injective with image s
            imgs = {emb.inclusion.apply_vec(x.coeffs) for x in emb.module.elements()}
            assert imgs == {e.coeffs for e in s.elements()}

    def test_coords_inverse_of_inclusion(self):
        m = regular_module(zn_ring(8))
        s = cyclic_submodule(m, (2,))
        emb = submodule_as_module(s)
        for x in emb.module.elements():
            back = emb.subgroup.coords(emb.inclusion.apply_vec(x.coeffs))
            assert back == x.coeffs
