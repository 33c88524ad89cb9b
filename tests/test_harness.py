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

    def test_profiles_precomputed(self, corpus12):
        for inst in corpus12.instances:
            assert inst.profile.is_goldie

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


def test_catalog_is_complete():
    assert set(STATEMENTS) == set(STATEMENT_IDS)
    assert len(STATEMENT_IDS) == 32
    for sid, spec in STATEMENTS.items():
        assert spec.description
        assert callable(spec.checker)
