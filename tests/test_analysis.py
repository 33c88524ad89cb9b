"""The per-module analysis memo: caps isolation, copies of cached lists,
sharing between equal modules, identity checks that keep structural
semantics, and warm answers against the oracle."""

import pickle

import pytest

from finmod import lattice
from finmod.algebra import (
    FiniteModule,
    Homomorphism,
    ModuleAnalysis,
    _direct_sum,
    clear_analyses,
    compose,
    cyclic_module,
    direct_sum,
    module_from_actions,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.config import DEFAULT_CAPS, Caps, CapExceeded
from finmod.harness import generate_corpus
from finmod.lattice import (
    Submodule,
    _lattice,
    all_submodules,
    distinct_cyclic_submodules,
    fully_invariant_submodules,
    image,
    is_quasi_projective,
    is_retractable,
)
from finmod.oracle import (
    BudgetExceeded,
    brute_ell,
    brute_is_locally_nilpotent,
    brute_is_nil_submodule,
    brute_prime_radical,
    brute_product,
)
from finmod.product import is_locally_nilpotent, is_nil_submodule, product
from finmod.radical import ell, is_semiprime_submodule, prime_radical


def plane(name="plane"):
    """F_2^2 with generator labels no other test uses, so its analysis starts
    cold; its lattice has five members."""
    return module_from_actions(
        zn_ring(2), (2, 2), [[[1, 0], [0, 1]]], labels=("u", "v"), name=name
    )


def test_small_caps_raise_before_and_after_a_default_call():
    # the lattice past a small cap raises, before and after a default call;
    # quasi-projectivity lists no lattice, so it takes no caps and answers
    # once
    m = plane()
    small = Caps(max_lattice=3)
    assert (DEFAULT_CAPS,) not in m.analysis.memos[_lattice]
    with pytest.raises(CapExceeded):
        all_submodules(m, small)
    assert is_quasi_projective(m)
    assert len(all_submodules(m)) == 5
    with pytest.raises(CapExceeded):
        all_submodules(m, small)
    assert (small,) not in m.analysis.memos[_lattice]
    assert m.analysis.memos[is_quasi_projective] == {(): True}


@pytest.mark.parametrize("query", [distinct_cyclic_submodules, fully_invariant_submodules])
def test_mutating_a_returned_list_leaves_the_memo_alone(query):
    m = regular_module(triangular_ring(2, 2))
    first = query(m)
    expected = list(first)
    first.clear()
    first.append(None)
    assert query(m) == expected


def test_equal_modules_share_one_analysis():
    a = plane("first")
    b = plane("second")
    assert a == b and a is not b
    assert a.analysis is b.analysis
    assert list(all_submodules(a)) == list(all_submodules(b))
    assert distinct_cyclic_submodules(a) == distinct_cyclic_submodules(b)
    assert is_quasi_projective(a) == is_quasi_projective(b)
    assert is_retractable(a) == is_retractable(b)
    assert (DEFAULT_CAPS,) in a.analysis.memos[is_retractable]
    assert ell(a) == ell(b)
    assert prime_radical(a) == prime_radical(b)


def square(name="square"):
    """Z_4^2 with generator labels no other test uses, so each submodule in
    its table is made from the module object that first asks for it."""
    return module_from_actions(
        zn_ring(4), (4, 4), [[[1, 0], [0, 1]]], labels=("s", "t"), name=name
    )


def test_identity_fast_paths_keep_structural_name_blind_semantics():
    a, b, renamed = square(), square(), square("renamed")
    assert a is not b and a == b == renamed and not a != renamed
    assert hash(a) == hash(b) == hash(renamed)
    assert a.analysis is b.analysis is renamed.analysis
    # operands from equal but distinct module objects
    x, y = Submodule.span(a, [(2, 0)]), Submodule.span(renamed, [(0, 1)])
    assert x.module is a and y.module is renamed
    total = x.sum(y)
    assert x.le(total) and y.le(total) and not total.le(x)
    assert total == Submodule.span(b, [(2, 0), (0, 1)]) and x.intersect(y).is_zero()
    assert product(b, x, y) == brute_product(b, x, y)
    ident_a, ident_r = Homomorphism.identity(a), Homomorphism.identity(renamed)
    assert compose(ident_a, ident_r) == Homomorphism(renamed, a, ident_a.matrix)
    # modules that truly differ still raise
    other = plane()
    z = Submodule.zero(other)
    for call, message in [
        (lambda: x.le(z), "submodules of different modules"),
        (lambda: x.sum(z), "submodules of different modules"),
        (lambda: x.intersect(z), "submodules of different modules"),
        (lambda: product(a, x, z), "product arguments must live in the ambient module"),
        (lambda: compose(ident_a, Homomorphism.identity(other)), "maps are not composable"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()
    # a pickled copy carries no analysis and finds the shared one
    assert "analysis" in a.__dict__ and not {"_hash", "analysis"} & set(a.__getstate__())
    data = pickle.dumps(a)
    assert b"ModuleAnalysis" not in data
    back = pickle.loads(data)
    assert back is not a and back == a and "analysis" not in back.__dict__
    assert back.analysis is a.analysis
    assert pickle.loads(pickle.dumps(x)) is x


@pytest.mark.parametrize(
    "module",
    [
        regular_module(triangular_ring(2, 2)),
        direct_sum(cyclic_module(zn_ring(4), 2), regular_module(zn_ring(4)))[0],
    ],
    ids=["T2(Z2)-regular", "Z2+Z4-over-Z4"],
)
def test_warm_radicals_match_the_oracle(module):
    for _ in range(2):
        assert ell(module) == brute_ell(module)
        assert prime_radical(module).prime_radical == brute_prime_radical(module)
    assert (DEFAULT_CAPS,) in module.analysis.memos[ell]
    assert (DEFAULT_CAPS,) in module.analysis.memos[prime_radical]


def test_repeat_direct_sum_returns_the_memoized_objects():
    # equal first summands share one memo, so the second call returns the
    # module, injections and projections of the first, with its name
    reg = regular_module(zn_ring(2))
    first = direct_sum(plane("first"), reg)
    again = direct_sum(plane("second"), regular_module(zn_ring(2)))
    assert again is first
    assert plane().analysis.memos[_direct_sum][reg,] is first
    assert first[0].name == "first (+) Z2 regular"


def _fresh(module):
    """An equal module with an analysis of its own, so that it computes every
    answer again."""
    copy = FiniteModule(*module)
    copy.analysis = ModuleAnalysis()
    return copy


def test_verdict_memos_agree_with_fresh_computation_and_the_oracle():
    # every submodule of the distinct seed-0 modules of order <= 64
    corpus = generate_corpus(0, budget=110)
    modules = dict.fromkeys(i.module for i in corpus.instances if i.module.order <= 64)
    compared = semiprime = 0
    for m in modules:
        fresh, fis = _fresh(m), fully_invariant_submodules(m)
        for s in all_submodules(m):
            nil = is_nil_submodule(m, s)
            assert is_nil_submodule(m, s) is nil and m.analysis.memos[is_nil_submodule][s, DEFAULT_CAPS] is nil
            assert nil == is_nil_submodule(fresh, s), (m.name, s.describe())
            loc = is_locally_nilpotent(m, s)
            assert is_locally_nilpotent(m, s) is loc
            assert loc == is_locally_nilpotent(fresh, s)
            try:
                brute = brute_is_nil_submodule(m, s), brute_is_locally_nilpotent(m, s)
            except BudgetExceeded:
                continue
            assert brute == (nil.is_nil, loc), (m.name, s.describe())
            compared += 1
            if s in fis and not s.is_full():
                verdict = is_semiprime_submodule(m, s)
                assert is_semiprime_submodule(m, s) is verdict
                assert verdict == is_semiprime_submodule(fresh, s)
                semiprime += 1
        # a candidate the test rejects stores nothing
        with pytest.raises(ValueError):
            is_semiprime_submodule(m, Submodule.full(m))
        assert (Submodule.full(m), DEFAULT_CAPS) not in m.analysis.memos[is_semiprime_submodule]
    assert (compared, semiprime) == (717, 382)


def test_capped_verdicts_store_nothing():
    # F_2^7 has order 128 and 127 nonzero cyclics, all maximal and none
    # nilpotent: the whole module answers False under the default caps
    m = module_from_actions(zn_ring(2), (2,) * 7, [[[int(i == j) for j in range(7)] for i in range(7)]],
                            labels=tuple("abcdefg"))
    full, line = Submodule.full(m), Submodule.span(m, [(1,) + (0,) * 6])
    for _ in range(2):
        with pytest.raises(CapExceeded, match="module order"):
            is_nil_submodule(m, line, Caps(max_module_order=64))
        assert not m.analysis.memos[is_nil_submodule]
    assert is_locally_nilpotent(m, full) is False
    assert m.analysis.memos[is_locally_nilpotent] == {(full, DEFAULT_CAPS): False}


def test_a_repeated_image_is_the_memoized_submodule(monkeypatch):
    m = plane("image")
    swap = Homomorphism(m, m, ((0, 1), (1, 0)))
    line = Submodule.span(m, [(1, 0)])
    first = image(swap, line)
    monkeypatch.setattr(lattice, "generated_subgroup", lambda *args: pytest.fail("image rebuilt"))
    assert image(swap, line) is first and image(swap, sub=line) is first
    monkeypatch.undo()
    assert first == Submodule.span(m, [(0, 1)])
    # a fresh analysis builds the image again, to an equal submodule
    clear_analyses()
    cold = plane("image")
    again = image(Homomorphism(cold, cold, swap.matrix), Submodule(cold, line.subgroup))
    assert again is not first and again == first


def test_a_cold_ell_of_a_direct_sum_lists_no_join_irreducibles(monkeypatch):
    # ell reads the distinct cyclics only, so no module it meets builds the
    # join-irreducibles that lattice walks read
    clear_analyses()
    calls = []
    join_irreducible = lattice._join_irreducible
    monkeypatch.setattr(lattice, "_join_irreducible",
                        lambda spans: calls.append(spans) or join_irreducible(spans))
    reg = regular_module(zn_ring(4))
    total = direct_sum(reg, reg)[0]
    assert ell(total) == brute_ell(total) == Submodule.span(total, [(2, 0), (0, 2)])
    assert not calls
