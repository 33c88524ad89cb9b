"""Statement catalog, corpus generation, and the verification loop."""

import pytest

from finmod.harness import (
    STATEMENT_IDS,
    STATEMENTS,
    Corpus,
    check_statement,
    generate_corpus,
    run_suite,
    search_counterexamples,
)


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
        assert not mixed.profile.is_quasi_projective

    def test_contains_non_semiprime_noncommutative(self, corpus12):
        from finmod.radical import is_semiprime_submodule
        from finmod.lattice import Submodule

        t2 = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        ok, _ = is_semiprime_submodule(t2.module, Submodule.zero(t2.module))
        assert not ok

    def test_corpus_decides_no_predicate_up_front(self):
        # set-up admits instances by order and |End| only; reading a
        # profile decides it, as is_goldie does
        from finmod.algebra import clear_analyses
        from finmod.lattice import is_goldie

        clear_analyses()
        corpus = generate_corpus(0, 110)
        for inst in corpus.instances:
            info = inst.module.analysis
            assert not info.quasi_projective and not info.retractable, inst.name
        for inst in corpus.instances:
            assert inst.profile.is_goldie and inst.profile == is_goldie(inst.module)
            info = inst.module.analysis
            assert info.quasi_projective and info.retractable, inst.name

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
        reports = search_counterexamples("COR-NESL", "quasi_projective", corpus12)
        names = {r.instance for r in reports}
        for inst in corpus12.instances:
            if inst.profile.is_quasi_projective:
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
        mixed = next(i for i in corpus12.instances if i.name == "Z2+Z4-over-Z4")
        with pytest.raises(CapExceeded) as exc:
            all_submodules(mixed.module, tiny)
        checked = check_statement("LEM-PRODDIRSUMM", mixed, tiny)
        searched = search_counterexamples(
            "LEM-FPROD", "quasi_projective", Corpus(seed=0, instances=(mixed,)), tiny
        )
        for report in [checked, *searched]:
            assert report.outcome == "skipped"
            assert report.detail == str(exc.value)
        assert len(searched) == 1


    def test_cap_met_by_a_hypothesis_is_a_skip(self):
        # Retractability of the ideal T2(Z2)e22 lists the two-sided ideals of
        # T2(Z2), of order 8, first (quasi-projectivity, a split test, lists
        # none); past a module order cap of 2 every check that reads a
        # profile hypothesis is a SKIP with the reason, in a suite and in a
        # search, and any other check still runs
        from finmod.algebra import regular_module, triangular_ring
        from finmod.config import Caps
        from finmod.harness import Instance
        from finmod.lattice import cyclic_submodule, submodule_as_module

        tiny = Caps(max_module_order=2)
        t2 = regular_module(triangular_ring(2, 2))
        ideal = submodule_as_module(cyclic_submodule(t2, (0, 0, 1))).module
        corpus = Corpus(seed=0, instances=(Instance("T2(Z2)e22", ideal.ring, ideal, tiny),))
        summary = run_suite(corpus, ["THM-MAIN", "LEM-FPROD", "EX-ZPN"], tiny)
        main, fprod, zpn = summary.reports
        for report in (main, fprod):
            assert report.outcome == "skipped"
            assert report.detail == "module order: reached 8 with cap 2"
        assert zpn.outcome == "hypothesis_not_met"
        (searched,) = search_counterexamples("THM-MAIN", "retractable", corpus, tiny)
        assert searched == main

    def test_end_cap_in_a_quotient_is_a_reported_skip(self, corpus12):
        # the quotients' annihilator lattices raise CapExceeded themselves,
        # so a check past the End cap is a SKIP with its reason
        from finmod.config import Caps

        tiny = Caps(max_hom_elements=1)
        t2 = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        for sid in ("PROP-FACTORRIGHTACC", "LEM-ACCMODULOANN"):
            assert check_statement(sid, t2).outcome == "pass"
            report = check_statement(sid, t2, tiny)
            assert report.outcome == "skipped"
            assert report.detail.startswith("endomorphism count")

    def test_end_samples_ignore_the_end_cap(self, corpus12):
        # End elements are drawn by index, never listed, so the End cap
        # neither skips LEM-FPROD nor leaves out LEM-DCCL's identity (2):
        # 4 element subsets for identity (1), then 3 draws for identity (2)
        from finmod.config import Caps

        tiny = Caps(max_hom_elements=1)
        t2 = next(i for i in corpus12.instances if i.name == "T2(Z2)-regular")
        for sid in ("LEM-FPROD", "LEM-DCCL"):
            report = check_statement(sid, t2, tiny)
            assert report.outcome == "pass"
            assert report == check_statement(sid, t2)
        assert check_statement("LEM-DCCL", t2, tiny).exercised == 4 + 3


def test_end_sample_draws_what_the_listed_sample_draws():
    # Decoding sampled indices must give exactly the maps that sampling the
    # listed End(M) gives, on every distinct seed-0 module (|End| <= 1,024).
    import random

    from finmod.harness import _end_elements_sample, _sample
    from finmod.homspace import hom_group

    modules = dict.fromkeys(i.module for i in generate_corpus(0, 110).instances)
    for m in modules:
        end = hom_group(m, m)
        for seed, k in ((1, 2), (2, 6)):
            got = _end_elements_sample(m, random.Random(seed), k)
            assert got == _sample(list(end.elements()), random.Random(seed), k), m.name
    assert len(modules) == 97


def test_catalog_is_complete():
    assert set(STATEMENTS) == set(STATEMENT_IDS)
    assert len(STATEMENT_IDS) == 32
    for sid, spec in STATEMENTS.items():
        assert spec.description
        assert callable(spec.checker)


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
    # Statements that share nil verdicts, semiprime verdicts and R's regular
    # module answer a second pass from the analyses: no subgroup is built
    # and no module is made.
    from finmod.algebra import FiniteModule
    from finmod.intlat import CanonicalSubgroup

    corpus = generate_corpus(0, budget=6)
    ids = ("COR-RSP", "PROP-SEMIPRIME-DIRSUM", "LEM-LSUMAS", "COR-FREE-NILP",
           "REM-LOCNIL-NIL", "LEM-FGNILP", "LEM-NILPSUBNIL", "THM-MAIN")
    first = run_suite(corpus)
    builds = []
    init, new = CanonicalSubgroup.__init__, FiniteModule.__new__

    def counted_init(self, *args, **kwargs):
        builds.append(("CanonicalSubgroup", args))
        init(self, *args, **kwargs)

    def counted_new(cls, *args, **kwargs):
        builds.append(("FiniteModule", args))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(CanonicalSubgroup, "__init__", counted_init)
    monkeypatch.setattr(FiniteModule, "__new__", staticmethod(counted_new))
    again = run_suite(corpus, ids=ids)
    assert not builds
    assert set(again.reports) == {r for r in first.reports if r.statement in ids}
    assert sum(r.exercised for r in again.reports) > 0
