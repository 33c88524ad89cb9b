"""Statement catalog, corpus generation, and the verification loop."""

import inspect
import time

import pytest

from finmod import harness
from finmod.algebra import direct_sum, regular_module, triangular_ring, zn_ring
from finmod.config import MAX_END_ELEMENTS, CapExceeded, Caps
from finmod.harness import (
    STATEMENT_IDS,
    STATEMENTS,
    Corpus,
    Instance,
    StatementSpec,
    _conclude,
    check_statement,
    generate_corpus,
    run_suite,
    search_counterexamples,
)
from finmod.homspace import end_ring, hom_group


def _free_instance(ring, n, caps=Caps()):
    """R^n as an instance named like the corpus's free modules."""
    reg = module = regular_module(ring)
    for _ in range(n - 1):
        module = direct_sum(module, reg)[0]
    return Instance(f"{ring.name}^{n}-free", ring, module, caps)


@pytest.fixture(scope="module")
def corpus12():
    return generate_corpus(0, budget=12)


class TestCorpus:
    def test_deterministic(self, corpus12):
        again = generate_corpus(0, budget=12)
        assert [i.name for i in again.instances] == [
            i.name for i in corpus12.instances
        ]
        assert all(
            a.module == b.module
            for a, b in zip(again.instances, corpus12.instances)
        )

    def test_seed_changes_mix(self):
        a = generate_corpus(0, budget=12)
        b = generate_corpus(1, budget=12)
        assert [i.name for i in a.instances] != [i.name for i in b.instances]

    def test_mandatory_members(self, corpus12):
        names = [i.name for i in corpus12.instances]
        assert "Z2+Z4-over-Z4" in names
        assert "T2(Z2)-regular" in names

    def test_contains_non_quasi_projective(self, corpus12):
        mixed = next(i for i in corpus12.instances if i.name == "Z2+Z4-over-Z4")
        from finmod.lattice import is_quasi_projective

        assert not is_quasi_projective(mixed.module)

    def test_contains_non_semiprime_noncommutative(self, corpus12):
        from finmod.radical import is_semiprime_submodule
        from finmod.lattice import Submodule

        t2 = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        ok, _ = is_semiprime_submodule(t2.module, Submodule.zero(t2.module))
        assert not ok

    def test_corpus_decides_no_predicate_up_front(self):
        # set-up admits instances by order and |End| only; a statement's
        # hypotheses decide the predicates it names, as is_goldie does
        from finmod.algebra import clear_analyses
        from finmod.harness import _unmet
        from finmod.lattice import is_goldie, is_quasi_projective, is_retractable

        clear_analyses()
        corpus = generate_corpus(0, 110)
        for inst in corpus.instances:
            memos = inst.module.analysis.memos
            assert not memos[is_quasi_projective] and not memos[is_retractable], inst.name
        for inst in corpus.instances:
            _unmet(STATEMENTS["LEM-FPROD"], inst)
            memos = inst.module.analysis.memos
            assert memos[is_quasi_projective] and not memos[is_retractable], inst.name
        for inst in corpus.instances:
            profile = is_goldie(inst.module)
            assert _unmet(STATEMENTS["THM-MAIN"], inst) == [
                h for h, holds in (("quasi_projective", profile.is_quasi_projective),
                                   ("retractable", profile.is_retractable)) if not holds]

    def test_instances_self_consistent(self, corpus12):
        from finmod.algebra import validate_module, validate_ring

        for inst in corpus12.instances:
            assert validate_ring(inst.ring) is inst.ring
            assert validate_module(inst.module.ring, inst.module) is inst.module


class TestCheckStatement:
    def test_radical_identity_on_z6(self, corpus12):
        inst = next(i for i in corpus12.instances if i.name == "Z10-regular")
        report = check_statement("COR-NESL", inst)
        assert report.outcome == "pass"

    def test_main_theorem_on_triangular(self, corpus12):
        inst = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        report = check_statement("THM-MAIN", inst)
        assert report.outcome == "pass"
        assert report.exercised >= 1  # the strictly upper triangular part is nil

    def test_hypothesis_gate(self, corpus12):
        mixed = next(i for i in corpus12.instances if i.name == "Z2+Z4-over-Z4")
        report = check_statement("LEM-FPROD", mixed)
        assert report.outcome == "hypothesis_not_met"
        assert report.detail == "quasi_projective"

    def test_unknown_statement(self, corpus12):
        with pytest.raises(ValueError):
            check_statement("LEM-NOPE", corpus12.instances[0])

    def test_radical_statements_pass_vacuously_on_the_zero_module(self):
        # Spec(0) is empty and the radical of 0 is 0, which is nilpotent
        from finmod.algebra import quotient_module, regular_module, zn_ring
        from finmod.harness import Instance
        from finmod.lattice import Submodule

        reg = regular_module(zn_ring(2))
        zero, _ = quotient_module(reg, Submodule.full(reg))
        inst = Instance("Z2/Z2", zero.ring, zero)
        for sid in ("COR-LSP", "COR-NESL", "COR-PRNILNET", "COR-PRIMENILGOLDIE"):
            report = check_statement(sid, inst)
            assert (report.outcome, report.detail) == ("pass", "zero module"), sid

    def test_zpn_statement(self, corpus12):
        cyclic = next(
            i for i in corpus12.instances if i.name == "Z40-regular"
        )
        report = check_statement("EX-ZPN", cyclic)
        assert report.outcome == "hypothesis_not_met"


class TestRunSuite:
    def test_empty_corpus(self):
        summary = run_suite(Corpus(seed=0, instances=()))
        assert summary.reports == ()
        assert summary.exit_code == 0

    def test_single_pair(self, corpus12):
        summary = run_suite(
            Corpus(seed=0, instances=corpus12.instances[:1]), ids=["COR-NESL"]
        )
        assert len(summary.reports) == 1

    def test_deterministic_text(self, corpus12):
        small = Corpus(seed=0, instances=corpus12.instances[:3])
        ids = ["COR-NESL", "LEM-RANNINTERSECTION", "PROP-SUBM"]
        assert run_suite(small, ids).text() == run_suite(small, ids).text()

    def test_parallel_matches_serial(self, corpus12):
        small = Corpus(seed=0, instances=corpus12.instances[:2])
        ids = ["COR-NESL", "THM-MAIN"]
        assert run_suite(small, ids, jobs=2).text() == run_suite(small, ids).text()


class TestSearch:
    def test_drop_nothing_equals_check(self, corpus12):
        reports = search_counterexamples("COR-NESL", None, corpus12)
        direct = [check_statement("COR-NESL", i) for i in corpus12.instances]
        assert [r.outcome for r in reports] == [
            "pass" if d.outcome in ("pass",) else d.outcome for d in direct
        ] or len(reports) == len(direct)

    def test_only_violating_instances_are_searched(self, corpus12):
        from finmod.lattice import is_quasi_projective

        reports = search_counterexamples("COR-NESL", "quasi_projective", corpus12)
        names = {r.instance for r in reports}
        for inst in corpus12.instances:
            if is_quasi_projective(inst.module):
                assert inst.name not in names

    def test_fprod_needs_projectivity(self, corpus12):
        # dropping the lifting hypothesis produces a genuine counterexample
        reports = search_counterexamples("LEM-FPROD", "quasi_projective", corpus12)
        assert any(r.outcome == "fail" for r in reports)

    def test_invalid_drop_rejected(self, corpus12):
        with pytest.raises(ValueError):
            search_counterexamples("LEM-FPROD", "retractable", corpus12)
        with pytest.raises(ValueError):
            search_counterexamples("THM-MAIN", "goldie", corpus12)

    def test_cap_exceeded_is_skipped(self, corpus12):
        from finmod.config import CapExceeded, Caps
        from finmod.lattice import all_submodules

        tiny = Caps(max_lattice=2)
        mixed = next(i for i in corpus12.instances if i.name == "Z2+Z4-over-Z4")._replace(caps=tiny)
        with pytest.raises(CapExceeded) as exc:
            all_submodules(mixed.module, tiny)
        checked = check_statement("LEM-PRODDIRSUMM", mixed)
        searched = search_counterexamples(
            "LEM-FPROD", "quasi_projective", Corpus(seed=0, instances=(mixed,))
        )
        for report in [checked, *searched]:
            assert report.outcome == "skipped"
            assert report.detail == str(exc.value)
        assert len(searched) == 1


    def test_cap_met_by_a_hypothesis_is_a_skip(self):
        # Retractability of the ideal T2(Z2)e22 lists the two-sided ideals of
        # T2(Z2), of order 8 (quasi-projectivity, a split test, lists none);
        # past a module order cap of 2 every check that reads retractability
        # is a SKIP with that reason, in a suite and in a search, and any
        # other check still runs: LEM-FPROD, gated on quasi-projectivity
        # only, meets the cap in its own lattice, of order 4
        from finmod.algebra import regular_module, triangular_ring
        from finmod.config import Caps
        from finmod.harness import Instance
        from finmod.lattice import cyclic_submodule, submodule_as_module

        tiny = Caps(max_module_order=2)
        t2 = regular_module(triangular_ring(2, 2))
        ideal = submodule_as_module(cyclic_submodule(t2, (0, 0, 1))).module
        corpus = Corpus(seed=0, instances=(Instance("T2(Z2)e22", ideal.ring, ideal, tiny),))
        summary = run_suite(corpus, ["THM-MAIN", "LEM-FPROD", "EX-ZPN"])
        main, fprod, zpn = summary.reports
        for report, order in ((main, 8), (fprod, 4)):
            assert report.outcome == "skipped"
            assert report.detail == f"module order: reached {order} with cap 2"
        assert zpn.outcome == "hypothesis_not_met"
        (searched,) = search_counterexamples("THM-MAIN", "retractable", corpus)
        assert searched == main

    def test_end_cap_in_a_quotient_is_a_reported_skip(self, corpus12):
        # the quotients' annihilator lattices raise CapExceeded themselves,
        # so a check past the End cap is a SKIP with its reason: the sampled
        # N of Z2^4 have ann_right(N) = 0, and End(Z2^4) is simple, so each
        # check meets the quotient Z2^4 itself, with 2^16 endomorphisms
        t2 = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        z2_4 = _free_instance(zn_ring(2), 4)
        for sid in ("PROP-FACTORRIGHTACC", "LEM-ACCMODULOANN"):
            assert check_statement(sid, t2).outcome == "pass"
            report = check_statement(sid, z2_4)
            assert report.outcome == "skipped"
            assert report.detail == "endomorphism count: reached 65536 with cap 4096"

    def test_end_samples_ignore_the_end_cap(self):
        # End elements are drawn by index, never listed, so the End cap
        # neither skips LEM-FPROD nor leaves out LEM-DCCL's identity (2) on
        # Z2^4, past it: 4 element subsets for identity (1), then 3 draws
        # for identity (2)
        z2_4 = _free_instance(zn_ring(2), 4)
        assert hom_group(z2_4.module, z2_4.module).order > MAX_END_ELEMENTS
        for sid in ("LEM-FPROD", "LEM-DCCL"):
            assert check_statement(sid, z2_4).outcome == "pass"
        assert check_statement("LEM-DCCL", z2_4).exercised == 4 + 3

    def test_end_ring_is_built_past_every_cap(self):
        # PROP-MACCSACC reads |End| off the Hom group, and End(M)^op meets
        # the module-order cap only when LEM-MGOLSGOL lists its lattice
        caps = Caps(max_lattice=6000)
        cube = _free_instance(triangular_ring(2, 2), 3, caps)
        start = time.process_time()
        end = end_ring(cube.module)
        assert time.process_time() - start < 1
        assert end.as_ring.order == 2**27
        for inst, order in ((_free_instance(zn_ring(2), 4, caps), 2**16), (cube, 2**27)):
            maccsacc = check_statement("PROP-MACCSACC", inst)
            assert maccsacc.outcome == "pass" and maccsacc.detail == f"|End|={order}"
            mgolsgol = check_statement("LEM-MGOLSGOL", inst)
            assert mgolsgol.outcome == "skipped"
            assert mgolsgol.detail == f"module order: reached {order} with cap 4096"


def test_end_sample_draws_what_the_listed_sample_draws():
    # Decoding sampled indices must give exactly the maps that sampling the
    # listed End(M) gives, on every distinct seed-0 module (|End| <= 1,024),
    # and exactly the pairs that sampling the listed pairs gives.
    import random

    from finmod.harness import _end_elements_sample, _sample, _sample_pairs
    from finmod.homspace import hom_group

    modules = dict.fromkeys(i.module for i in generate_corpus(0, 110).instances)
    for m in modules:
        end = hom_group(m, m)
        for seed, k in ((1, 2), (2, 6)):
            got = _end_elements_sample(m, random.Random(seed), k)
            assert got == _sample(list(end.elements()), random.Random(seed), k), m.name
    assert len(modules) == 97
    for n in range(40):
        items = [f"x{i}" for i in range(n)]
        listed = [(x, y) for x in items for y in items]
        for seed, k in ((1, 8), (2, 10)):
            got = _sample_pairs(items, random.Random(seed), k)
            assert got == _sample(listed, random.Random(seed), k), n


def test_catalog_is_complete():
    assert set(STATEMENTS) == set(STATEMENT_IDS)
    assert len(STATEMENT_IDS) == 32
    for sid, spec in STATEMENTS.items():
        assert spec.description
        assert inspect.isgeneratorfunction(spec.checker), sid


class TestCheckerProtocol:
    """A checker yields one verdict per case, None or a witness, and returns
    the detail of a pass; ``_conclude`` counts the cases up to the first
    witness."""

    @staticmethod
    def check(monkeypatch, checker):
        monkeypatch.setitem(STATEMENTS, "FAKE", StatementSpec((), "a fake statement", checker))
        reg = regular_module(zn_ring(2))
        return check_statement("FAKE", Instance("Z2-regular", reg.ring, reg))

    def test_a_witness_fails_after_the_cases_before_it(self, monkeypatch):
        def checker(m, rng, caps):
            yield from (None, None, "w")

        report = self.check(monkeypatch, checker)
        assert (report.outcome, report.exercised, report.witness) == ("fail", 2, "w")
        assert report.line() == "FAIL FAKE Z2-regular witness=w"

    def test_a_pass_counts_every_case_and_keeps_the_returned_detail(self, monkeypatch):
        def checker(m, rng, caps):
            yield None
            yield None
            return "d"

        assert self.check(monkeypatch, checker).line() == "PASS FAKE Z2-regular exercised=2 (d)"

    def test_a_checker_with_no_case_passes_with_its_detail(self, monkeypatch):
        def checker(m, rng, caps):
            return "zero module"
            yield

        report = self.check(monkeypatch, checker)
        assert report.line() == "PASS FAKE Z2-regular exercised=0 (zero module)"

    def test_a_cap_met_after_a_case_is_a_skip(self, monkeypatch):
        exc = CapExceeded("lattice", 3, 2)

        def checker(m, rng, caps):
            yield None
            raise exc

        report = self.check(monkeypatch, checker)
        assert (report.outcome, report.detail, report.exercised) == ("skipped", str(exc), 0)
        assert report.line() == "SKIP FAKE Z2-regular (lattice: reached 3 with cap 2)"
        reg = regular_module(zn_ring(2))
        with pytest.raises(CapExceeded):
            _conclude("FAKE", Instance("Z2-regular", reg.ring, reg))

    def test_nothing_after_the_first_witness_runs(self, monkeypatch):
        ran = []

        def checker(m, rng, caps):
            yield None
            yield "w"
            ran.append("after")
            yield None

        report = self.check(monkeypatch, checker)
        assert (report.outcome, report.exercised, report.witness) == ("fail", 1, "w")
        assert not ran

    def test_lfiyrad_counts_its_first_two_conclusions_as_one_case(self, monkeypatch, corpus12):
        # 0 cases on either of its first two failures, 1 on the third, 3 on a pass
        from finmod.lattice import Submodule

        inst = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        sid, ell = "PROP-LFIYRAD", harness.ell
        assert _conclude(sid, inst) == (3, None, "")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "fully_invariant_submodules", lambda m, caps: [])
            assert _conclude(sid, inst) == (0, "radical not fully invariant", "")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "is_locally_nilpotent", lambda m, s, caps: False)
            assert _conclude(sid, inst) == (0, "radical not locally nilpotent", "")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "ell", lambda m, caps: (
                ell(m, caps) if m is inst.module else Submodule.full(m)))
            assert _conclude(sid, inst) == (1, "quotient has nonzero radical", "")


def test_right_annihilators_of_a_non_quasi_projective_sum_miss_15_pairs():
    # On T2(Z2)+quotient, of order 32 and not quasi-projective, 15 of the
    # unordered pairs of its 47 submodules have Ann^r(N1 + N2) strictly
    # inside Ann^r(N1) meet Ann^r(N2), which LEM-RANNINTERSECTION, sampling
    # 6 families, does not meet on seed 0.  Its report is left unasserted.
    from itertools import combinations

    from finmod.cli import resolve_submodule
    from finmod.lattice import Submodule, all_submodules, is_quasi_projective
    from finmod.oracle import brute_ann_right
    from finmod.radical import ann_right

    inst = next(i for i in generate_corpus(0, 110).instances if i.name == "T2(Z2)+quotient")
    m = inst.module
    assert m.order == 32 and not is_quasi_projective(m)
    lat = all_submodules(m)
    assert len(lat) == 47
    missed = [(a, b) for a, b in combinations(lat, 2)
              if ann_right(m, a.sum(b)) != ann_right(m, a).intersect(ann_right(m, b))]
    assert len(missed) == 15
    n1, n2 = resolve_submodule(m, "<g4>"), resolve_submodule(m, "<g3>")
    expected = (Submodule.full(m), n1, Submodule.zero(m))
    for sub, ann in zip((n1, n2, n1.sum(n2)), expected):
        assert ann_right(m, sub) == brute_ann_right(m, sub) == ann


def test_elapsed_counts_the_hypothesis_gate(monkeypatch, corpus12):
    # one clock per report: a slow gate shows in the checked report's time,
    # in check_statement and in the search alike
    import time

    from finmod import harness

    def slow(holds):
        def gate(instance):
            time.sleep(0.02)
            return holds
        return gate

    inst = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
    monkeypatch.setitem(harness._HYPOTHESES, "quasi_projective", slow(True))
    report = check_statement("LEM-FPROD", inst)
    assert report.outcome == "pass" and report.elapsed >= 0.02
    monkeypatch.setitem(harness._HYPOTHESES, "quasi_projective", slow(False))
    (found,) = search_counterexamples("LEM-FPROD", "quasi_projective", Corpus(0, (inst,)))
    assert found.outcome == "pass" and found.elapsed >= 0.02


def test_a_warm_check_builds_nothing(monkeypatch):
    # Statements that share nil verdicts, semiprime verdicts, R's regular
    # module and End(M)^op's regular module answer a second pass from the
    # analyses: no subgroup is built and no module or ring is made.
    from finmod.algebra import FiniteModule, FiniteRing
    from finmod.intlat import CanonicalSubgroup

    corpus = generate_corpus(0, budget=6)
    ids = ("COR-RSP", "PROP-SEMIPRIME-DIRSUM", "LEM-LSUMAS", "COR-FREE-NILP",
           "REM-LOCNIL-NIL", "LEM-FGNILP", "LEM-NILPSUBNIL", "THM-MAIN", "LEM-MGOLSGOL")
    first = run_suite(corpus)
    builds = []
    init = CanonicalSubgroup.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(("CanonicalSubgroup", args))
        init(self, *args, **kwargs)

    def count_builds(cls):
        new = cls.__new__

        def counted(cls, *args, **kwargs):
            builds.append((cls.__name__, args))
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))

    monkeypatch.setattr(CanonicalSubgroup, "__init__", counted_init)
    count_builds(FiniteModule)
    count_builds(FiniteRing)
    again = run_suite(corpus, ids=ids)
    assert not builds
    assert set(again.reports) == {r for r in first.reports if r.statement in ids}
    assert sum(r.exercised for r in again.reports) > 0


def test_the_order_24_witness_needs_quasi_projectivity():
    # D (+) Z3 over S x Z3, with S = F2[x,y]/(x,y)^2 and D its dual: it is
    # retractable and not quasi-projective, and N = <g0, g1, 3*g2> is fully
    # invariant and nil with N*N = N.  With quasi-projectivity dropped the
    # main theorem and its neighbours FAIL on it, and no search raises.
    # LEM-FGNILP samples 8 of the 12 members, seeded by the instance name:
    # under the file's name the sample misses N and passes, under "D+Z3" it
    # meets N and fails.
    from pathlib import Path

    from finmod.cli import parse_instance, resolve_submodule, serialize_instance
    from finmod.oracle import (
        brute_is_nil_submodule, brute_is_quasi_projective, brute_is_retractable, brute_product,
    )
    from finmod.product import is_locally_nilpotent, nilpotency_index
    from finmod.radical import subm_sequence

    path = Path(__file__).resolve().parent / "golden" / "d-plus-z3.ring"
    ring, m = parse_instance(str(path))
    assert serialize_instance(ring, m) == path.read_text()
    assert (m.inv_factors, m.order) == ((2, 2, 6), 24)
    n_sub = resolve_submodule(m, "<g0, g1, 3*g2>")
    assert brute_is_nil_submodule(m, n_sub)
    assert brute_product(m, n_sub, n_sub) == n_sub
    assert not brute_is_quasi_projective(m) and brute_is_retractable(m)
    assert subm_sequence(m, n_sub) == ("no_slice", 1)
    corpus = Corpus(0, (Instance(m.name, ring, m),))
    outcomes = {}
    for sid, spec in STATEMENTS.items():
        for hyp in spec.hypotheses:
            for report in search_counterexamples(sid, hyp, corpus):
                outcomes[sid] = report
    assert {r.outcome for r in outcomes.values()} == {"pass", "fail"}
    for sid in ("PROP-SUBM", "THM-MAIN", "COR-PRIMENILGOLDIE", "LEM-RANNNCERO"):
        assert outcomes[sid].outcome == "fail", outcomes[sid].line()
    assert outcomes["PROP-SUBM"].witness == "no nonzero slice on <g0, g1, 3*g2>"
    for sid in ("THM-MAIN", "COR-PRIMENILGOLDIE"):
        assert outcomes[sid].witness == "<g0, g1, 3*g2>"
    assert outcomes["LEM-FGNILP"].line() == "PASS LEM-FGNILP D (+) Z3 exercised=3"
    assert is_locally_nilpotent(m, n_sub) and nilpotency_index(m, n_sub) is None
    fgnilp = Instance("D+Z3", ring, m)
    (found,) = search_counterexamples("LEM-FGNILP", "quasi_projective", Corpus(0, (fgnilp,)))
    assert (found.outcome, found.witness) == ("fail", "<g0, g1, 3*g2>")


def test_cor_lsp_fails_where_the_radical_is_not_fully_invariant():
    # An order-16 module over S = F2[x,y]/(x,y)^2, x: g0 -> g2, y: g1 -> g3,
    # not quasi-projective: the sum of its nilpotent cyclics is not fully
    # invariant, so it is not a semiprime submodule, and COR-LSP's search
    # reports that as a FAIL rather than raising the semiprime test's
    # ValueError.
    from finmod.algebra import FiniteRing, module_from_actions, validate_ring
    from finmod.oracle import brute_ell, brute_fully_invariant_submodules

    s = validate_ring(FiniteRing(
        (2, 2, 2),
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
         ((0, 0, 1), (0, 0, 0), (0, 0, 0))),
        (1, 0, 0), ("1", "x", "y"), "F2[x,y]/(x,y)^2"))
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    x_act = [[int((i, j) == (2, 0)) for j in range(4)] for i in range(4)]
    y_act = [[int((i, j) == (3, 1)) for j in range(4)] for i in range(4)]
    m = module_from_actions(s, (2, 2, 2, 2), [identity, x_act, y_act], name="S-module of order 16")
    radical = brute_ell(m)
    assert radical.describe() == "<g0+g1, g2, g3>"
    assert radical not in brute_fully_invariant_submodules(m)
    (found,) = search_counterexamples("COR-LSP", "quasi_projective", Corpus(0, (Instance(m.name, s, m),)))
    assert (found.outcome, found.witness) == ("fail", "radical <g0+g1, g2, g3> is not fully invariant")
