"""Hom group and endomorphism ring computation."""

import itertools
import math
import runpy
from pathlib import Path

import pytest

from finmod import algebra, homspace
from finmod.algebra import (
    Homomorphism,
    compose,
    cyclic_module,
    direct_sum,
    matrix_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    validate_ring,
    zn_ring,
)
from finmod.harness import generate_corpus
from finmod.homspace import _solved_hom_subgroup, end_ring, hom_group, maps_into
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    all_submodules,
    cyclic_submodule,
    fully_invariant_submodules,
    image,
    kernel,
    submodule_as_module,
)
from finmod.oracle import BudgetExceeded, brute_hom_group


def z4_regular():
    return regular_module(zn_ring(4))


def _zero_map(source, target):
    return Homomorphism.from_flat(source, target, (0,) * (source.ngens * target.ngens))


class TestHomGroup:
    def test_end_of_free_rank_one(self):
        m = z4_regular()
        h = hom_group(m, m)
        assert h.group_invariants == (4,)
        assert h.order == 4
        assert any(g.matrix == ((1,),) for g in h.generators)

    def test_into_submodule(self):
        m = z4_regular()
        two_m = cyclic_submodule(m, (2,))
        emb = submodule_as_module(m, two_m)
        h = hom_group(m, emb.module)
        assert h.group_invariants == (2,)
        gen = h.generators[0]
        # the only nonzero map sends x to 2x (under the inclusion)
        incl = compose(emb.inclusion, gen)
        assert incl.apply_vec((1,)) == (2,)

    def test_coprime_orders_give_zero(self):
        m = regular_module(zn_ring(6))
        two_m = submodule_as_module(m, cyclic_submodule(m, (2,)))
        three_m = submodule_as_module(m, cyclic_submodule(m, (3,)))
        h = hom_group(two_m.module, three_m.module)
        assert h.order == 1

    def test_generators_commute_with_actions(self):
        for m in [regular_module(triangular_ring(2, 2)), z4_regular()]:
            h = hom_group(m, m)
            for g in h.generators:
                for i in range(m.ring.rank):
                    a = m.actions[i]
                    s = m.ngens
                    left = [
                        [
                            sum(g.matrix[k][l] * a[l][j] for l in range(s))
                            % m.inv_factors[k]
                            for j in range(s)
                        ]
                        for k in range(s)
                    ]
                    right = [
                        [
                            sum(a[k][l] * g.matrix[l][j] for l in range(s))
                            % m.inv_factors[k]
                            for j in range(s)
                        ]
                        for k in range(s)
                    ]
                    assert left == right

    def test_direct_sum_additivity(self):
        ring = zn_ring(4)
        a = cyclic_module(ring, 2)
        b = regular_module(ring)
        d, _, _ = direct_sum(a, b)
        n = regular_module(ring)
        combined = sorted(
            hom_group(a, n).group_invariants + hom_group(b, n).group_invariants
        )
        got = sorted(hom_group(d, n).group_invariants)
        # same abelian group: compare multiset of elementary divisors
        assert _elementary_divisors(got) == _elementary_divisors(combined)

    def test_elements_enumeration(self):
        m = z4_regular()
        h = hom_group(m, m)
        mats = {f.matrix for f in h.elements()}
        assert mats == {((i,),) for i in range(4)}

    def test_out_of_a_free_module_read_off_matches_the_solve(self):
        """Hom(R^n, N) = N^n: for every distinct seed-0 module N, out of R
        and, for |R| <= 27, out of R (+) R, the maps read off N span the
        interned subgroup the congruence solve gives, with its generators."""
        modules = dict.fromkeys(i.module for i in generate_corpus(0, 110).instances)
        pairs = 0
        for n in modules:
            reg = regular_module(n.ring)
            sources = [reg]
            if n.ring.order <= 27:
                sources.append(direct_sum(reg, reg)[0])
            for free in sources:
                leaves = algebra._SUMMANDS[free][2] if free is not reg else [Homomorphism.identity(reg)]
                assert all(p.target is reg for p in leaves)
                solved = _solved_hom_subgroup(free, n)
                group = hom_group(free, n)
                assert group.subgroup is solved, (free, n)
                assert [g.matrix for g in group.generators] == [
                    Homomorphism.from_flat(free, n, row).matrix for row in solved.basis
                ]
                pairs += 1
        assert pairs == 162


def _read_off_cases():
    """A source of each kind the read-off meets, by name: sums of a
    non-free and a free summand, of non-free summands, nested with R, and
    T2(Z2)^3 three levels deep; Z2 over Z4 and over Z8, one presentation
    over two rings; and (Z2 over Z12) (+) Z12."""
    z4, t2 = regular_module(zn_ring(4)), regular_module(triangular_ring(2, 2))
    m = next(i.module for i in generate_corpus(0, 110).instances if i.name == "T2(Z2)-regular/fi1")
    mm = direct_sum(m, m)[0]
    two12 = cyclic_module(zn_ring(12), 2)
    return {
        "Z2+Z4/Z4": direct_sum(cyclic_module(z4.ring, 2), z4)[0],
        "M+M": mm,
        "(M+M)+R": direct_sum(mm, t2)[0],
        "T2(Z2)^3": direct_sum(direct_sum(t2, t2)[0], t2)[0],
        "Z2/Z4": cyclic_module(z4.ring, 2),
        "Z2/Z8": cyclic_module(zn_ring(8), 2),
        "Z2/Z12+Z12": direct_sum(two12, regular_module(two12.ring))[0],
    }


def _test_submodules(m):
    """0, M, and the submodules one generator, and the first plus the last,
    span."""
    units = Homomorphism.identity(m).matrix
    rows = [[u] for u in units] + [[[a + b for a, b in zip(units[0], units[-1])]]]
    return dict.fromkeys([Submodule.zero(m), Submodule.full(m), *(Submodule.span(m, r) for r in rows)])


def test_every_read_off_spans_what_the_solve_and_the_oracle_span():
    """Hom(A (+) B, K) = Hom(A, K) x Hom(B, K): on sources of every kind,
    into the modules over their ring and into its regular module, the maps
    ``hom_group`` and ``maps_into`` read off span the congruence solve's
    group on the same pair, and, where the oracle reaches, its list."""
    cases = _read_off_cases()
    t2 = regular_module(triangular_ring(2, 2))
    assert [p.target for p in algebra._SUMMANDS[cases["T2(Z2)^3"]][2]] == [t2] * 3
    assert algebra._SUMMANDS[cases["(M+M)+R"]][2][-1].target is t2
    homs = maps = brute = 0
    for src in cases.values():
        if src in algebra._SUMMANDS:  # a sum's order is the product of its leaves'
            assert math.prod(p.target.order for p in algebra._SUMMANDS[src][2]) == src.order
        moduli = [e for e in src.inv_factors for _ in range(src.ngens)]
        for tgt in dict.fromkeys([regular_module(src.ring), *(t for t in cases.values() if t.ring == src.ring)]):
            group = hom_group(src, tgt)
            assert group.subgroup == _solved_hom_subgroup(src, tgt), (src, tgt)
            homs += 1
            try:
                listed = brute_hom_group(src, tgt)
            except BudgetExceeded:
                continue
            t_moduli = [e for e in tgt.inv_factors for _ in range(src.ngens)]
            assert CanonicalSubgroup(t_moduli, [f.flatten() for f in listed]) == group.subgroup
            assert len(listed) == group.order
            brute += 1
        try:
            ends = brute_hom_group(src, src)
        except BudgetExceeded:
            ends = None
        for k in _test_submodules(src):
            emb = submodule_as_module(src, k)
            solved = [compose(emb.inclusion, Homomorphism.from_flat(src, emb.module, g)).flatten()
                      for g in _solved_hom_subgroup(src, emb.module).basis]
            got = CanonicalSubgroup(moduli, [f.flatten() for f in maps_into(src, k)])
            assert got == CanonicalSubgroup(moduli, solved), (src, k)
            maps += 1
            if ends is not None:
                assert got == CanonicalSubgroup(moduli, [f.flatten() for f in ends if image(f).le(k)])
                brute += 1
    assert (homs, maps, brute) == (22, 43, 17 + 21), (homs, maps, brute)


def test_a_deep_sum_composes_each_map_once(monkeypatch):
    # the projections onto the leaves were composed when the sum was built
    cube = _read_off_cases()["T2(Z2)^3"]
    calls = []
    monkeypatch.setattr(homspace, "compose", lambda f, g: calls.append(f) or compose(f, g))
    maps = homspace._maps_out(cube, cube, Homomorphism.identity(cube).matrix)
    assert len(maps) == len(calls) == 3 * 9


def test_a_leaf_that_recurs_is_solved_once(monkeypatch):
    # Z2 over Z4 is no regular module, so the maps out of it are solved;
    # M (+) M has two leaves onto M, and its maps into each K one solve
    algebra.clear_analyses()  # so no maps_into answer is served from a memo
    m = cyclic_module(zn_ring(4), 2)
    total = direct_sum(m, m)[0]
    solve, calls = homspace._solved_hom_subgroup, []
    monkeypatch.setattr(homspace, "_solved_hom_subgroup", lambda *a: calls.append(a) or solve(*a))
    for k in all_submodules(total):
        calls.clear()
        maps = maps_into(total, k)
        assert len(calls) == 1 and len(maps) == 2 * len(homspace._maps_out(m, total, k.basis))


def test_a_module_that_acts_like_a_regular_one_over_another_ring_is_solved():
    # Z2 over Z12 shares the analysis of the regular Z2 over Z2, but is not
    # free over Z12: Hom(Z2, Z12) = {0, 6}, not Z12
    reg2 = regular_module(zn_ring(2))
    assert hom_group(reg2, reg2).order == 2 and maps_into(reg2, Submodule.full(reg2))
    z12 = zn_ring(12)
    two = cyclic_module(z12, 2)
    assert two.analysis is reg2.analysis and two != reg2
    assert {f.matrix for f in hom_group(two, regular_module(z12)).elements()} == {((0,),), ((6,),)}
    assert {f.matrix for f in hom_group(cyclic_module(zn_ring(4), 2), regular_module(zn_ring(4))).elements()} \
        == {((0,),), ((2,),)}


def _elementary_divisors(invariants):
    out = []
    for d in invariants:
        p = 2
        while p * p <= d:
            while d % p == 0:
                e = 1
                d //= p
                while d % p == 0:
                    d //= p
                    e += 1
                out.append(p**e)
            p += 1
        if d > 1:
            out.append(d)
    return sorted(out)


class TestEndRing:
    def test_end_of_z4(self):
        er = end_ring(z4_regular())
        assert er.as_ring.add_orders == (4,)
        assert validate_ring(er.as_ring) is er.as_ring

    def test_end_of_f2_square_is_matrix_ring(self):
        m = regular_module(zn_ring(2))
        sq, _, _ = direct_sum(m, m)
        er = end_ring(sq)
        assert er.as_ring.order == 16
        assert er.as_ring.add_orders == (2, 2, 2, 2)
        mat = matrix_ring(2, 2)
        # flattening an endomorphism matrix gives its coefficients in the
        # matrix-unit basis; composition must match matrix-ring multiplication
        homs = list(hom_group(sq, sq).elements())
        assert len(homs) == 16
        for f, g in itertools.product(homs, repeat=2):
            assert compose(f, g).flatten() == mat.mul_coeffs(f.flatten(), g.flatten())

    def test_end_of_zero_module(self):
        m = z4_regular()
        zero_mod, _ = quotient_module(m, Submodule.full(m))
        er = end_ring(zero_mod)
        assert er.as_ring.rank == 0
        assert er.as_ring.order == 1

    def test_struct_constants_match_composition(self):
        er = end_ring(regular_module(triangular_ring(2, 2)))
        ring = er.as_ring
        group = hom_group(er.module, er.module)
        for i, fi in enumerate(er.gens_as_homs):
            for j, fj in enumerate(er.gens_as_homs):
                assert group.coords(compose(fi, fj)) == ring.struct[i][j]


class TestKernelImage:
    def test_identity(self):
        m = z4_regular()
        ident = Homomorphism.identity(m)
        assert kernel(ident).is_zero()
        assert image(ident).is_full()

    def test_doubling_on_z4(self):
        m = z4_regular()
        f = Homomorphism.of(m, m, [[2]])
        two_m = cyclic_submodule(m, (2,))
        assert kernel(f) == two_m
        assert image(f) == two_m
        assert compose(f, f).is_zero()

    def test_compose_through_zero_module(self):
        m = regular_module(zn_ring(2))
        m2, _, _ = direct_sum(m, m)
        zero, _ = quotient_module(m2, Submodule.full(m2))
        assert zero.ngens == 0
        through = compose(_zero_map(zero, m2), _zero_map(m2, zero))
        assert through.matrix == ((0, 0), (0, 0))
        assert compose(_zero_map(m2, zero), _zero_map(zero, m2)).matrix == ()


@pytest.fixture(scope="module")
def is_nilpotent_endo():
    """The nilpotency test that the Hom demo defines and prints."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "03_hom_and_end.py"
    return runpy.run_path(str(demo))["is_nilpotent_endo"]


class TestNilpotentEndo:
    def test_zero_map(self, is_nilpotent_endo):
        m = z4_regular()
        assert is_nilpotent_endo(_zero_map(m, m)) == (True, 1)

    def test_doubling(self, is_nilpotent_endo):
        m = z4_regular()
        assert is_nilpotent_endo(Homomorphism.of(m, m, [[2]])) == (True, 2)

    def test_idempotent_scaling(self, is_nilpotent_endo):
        m = regular_module(zn_ring(6))
        nil, idx = is_nilpotent_endo(Homomorphism.of(m, m, [[4]]))
        assert not nil and idx is None


class TestQuotientLifting:
    def test_hom_onto_quotient_hom_when_quasi_projective(self):
        # restriction Hom(M, N) -> Hom(M/K, (N+K)/K) is onto for fully
        # invariant K when M lifts against its own quotients
        for m in [regular_module(zn_ring(8)), regular_module(triangular_ring(2, 2))]:
            fis = fully_invariant_submodules(m)
            for k_sub in fis:
                for n_sub in fis:
                    _check_surjective_restriction(m, n_sub, k_sub)


def _check_surjective_restriction(m, n_sub, k_sub):
    quot, proj = quotient_module(m, k_sub)
    # image of N in the quotient
    pn_rows = [proj.apply_vec(r) for r in n_sub.basis]
    pn = Submodule.span(quot, pn_rows)
    full = hom_group(quot, submodule_as_module(quot, pn).module)
    pn_emb = submodule_as_module(quot, pn)
    target_moduli = tuple(
        d for d in quot.inv_factors for _ in range(quot.ngens)
    )
    # group of all maps Q -> Q with image in pn
    full_rows = [
        compose(pn_emb.inclusion, g).flatten() for g in full.generators
    ]
    full_sub = CanonicalSubgroup(target_moduli, full_rows)
    # image of Hom(M, N): represent each f as M -> M, push through the quotient
    n_emb = submodule_as_module(m, n_sub)
    hmn = hom_group(m, n_emb.module)
    from finmod.algebra import quotient_with_section

    _, proj_mat, sect_mat = quotient_with_section(m, k_sub, m.ring)
    image_rows = []
    for g in hmn.generators:
        as_endo = compose(n_emb.inclusion, g)
        t = quot.ngens
        s = m.ngens
        rows = [
            [
                sum(
                    proj_mat[a][x] * as_endo.matrix[x][y] * sect_mat[y][b]
                    for x in range(s)
                    for y in range(s)
                )
                % quot.inv_factors[a]
                for b in range(t)
            ]
            for a in range(t)
        ]
        image_rows.append(tuple(v for row in rows for v in row))
    image_sub = CanonicalSubgroup(target_moduli, image_rows)
    assert image_sub == full_sub
