"""Hom group and endomorphism ring computation."""

import itertools

from finmod.algebra import (
    cyclic_module,
    direct_sum,
    matrix_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    validate_ring,
    zn_ring,
)
from finmod.homspace import (
    Homomorphism,
    compose,
    end_ring,
    hom_group,
    image,
    is_nilpotent_endo,
    kernel,
)
from finmod.intlat import CanonicalSubgroup
from finmod.lattice import (
    Submodule,
    cyclic_submodule,
    fully_invariant_submodules,
    submodule_as_module,
)


def z4_regular():
    return regular_module(zn_ring(4))


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
        emb = submodule_as_module(two_m)
        h = hom_group(m, emb.module)
        assert h.group_invariants == (2,)
        gen = h.generators[0]
        # the only nonzero map sends x to 2x (under the inclusion)
        incl = compose(emb.inclusion, gen)
        assert incl.apply_vec((1,)) == (2,)

    def test_coprime_orders_give_zero(self):
        m = regular_module(zn_ring(6))
        two_m = submodule_as_module(cyclic_submodule(m, (2,)))
        three_m = submodule_as_module(cyclic_submodule(m, (3,)))
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
        through = compose(Homomorphism.zero(zero, m2), Homomorphism.zero(m2, zero))
        assert through.matrix == ((0, 0), (0, 0))
        assert compose(Homomorphism.zero(m2, zero), Homomorphism.zero(zero, m2)).matrix == ()


class TestNilpotentEndo:
    def test_zero_map(self):
        m = z4_regular()
        assert is_nilpotent_endo(Homomorphism.zero(m, m)) == (True, 1)

    def test_doubling(self):
        m = z4_regular()
        assert is_nilpotent_endo(Homomorphism.of(m, m, [[2]])) == (True, 2)

    def test_idempotent_scaling(self):
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
    full = hom_group(quot, submodule_as_module(pn).module)
    pn_emb = submodule_as_module(pn)
    target_moduli = tuple(
        d for d in quot.inv_factors for _ in range(quot.ngens)
    )
    # group of all maps Q -> Q with image in pn
    full_rows = [
        compose(pn_emb.inclusion, g).flatten() for g in full.generators
    ]
    full_sub = CanonicalSubgroup(target_moduli, full_rows)
    # image of Hom(M, N): represent each f as M -> M, push through the quotient
    n_emb = submodule_as_module(n_sub)
    hmn = hom_group(m, n_emb.module)
    from finmod.algebra import quotient_with_section

    _, proj_mat, sect_mat = quotient_with_section(m, k_sub)
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
