"""Record types: which fields equality and hashing read, read-only fields,
pickling, and a cold import that leaves the heavy standard modules out."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from finmod.algebra import matrix_ring, regular_module, zn_ring
from finmod.config import Caps
from finmod.harness import SuiteSummary, VerificationReport, generate_corpus, run_suite
from finmod.homspace import hom_group
from finmod.intlat import generated_subgroup

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_equal(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)


def assert_unequal(a, b):
    assert a != b and not a == b


def test_rings_and_modules_ignore_their_name():
    ring = matrix_ring(2, 2)
    renamed = ring._replace(name="other")
    assert_equal(ring, renamed)
    assert_unequal(ring, ring._replace(labels=None))
    m = regular_module(ring)
    assert_equal(m, m._replace(name="other", ring=renamed))
    assert_unequal(m, m._replace(labels=None))
    assert_unequal(m, ring)


def test_reports_ignore_elapsed():
    report = VerificationReport("THM-MAIN", "Z4-regular", "pass", exercised=2, elapsed=0.5)
    assert_equal(report, report._replace(elapsed=3.0))
    assert_unequal(report, report._replace(exercised=3))
    assert report._replace(elapsed=3.0) in {report}


def test_hom_groups_ignore_and_hide_their_subgroup():
    m = regular_module(zn_ring(4))
    group = hom_group(m, m)
    other = group._replace(subgroup=generated_subgroup((4,), [(2,)]))
    assert_equal(group, other)
    assert_unequal(group, group._replace(generators=()))
    assert "subgroup" not in repr(group) and repr(group) == repr(other)


def test_fields_are_read_only():
    report = VerificationReport("THM-MAIN", "Z4-regular", "pass")
    ring = zn_ring(4)
    for record, field in ((report, "outcome"), (ring, "name"), (Caps(), "max_lattice"),
                          (hom_group(*(regular_module(ring),) * 2), "subgroup")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_reports_and_summaries_pickle_unchanged():
    summary = run_suite(generate_corpus(0, budget=2), ids=["COR-NESL", "THM-MAIN"])
    back = pickle.loads(pickle.dumps(summary))
    assert type(back) is SuiteSummary and back == summary
    assert back.text() == summary.text()
    assert [r.elapsed for r in back.reports] == [r.elapsed for r in summary.reports]


def test_cold_import_leaves_out_the_heavy_modules():
    # dataclasses imports inspect (and with it ast, dis and tokenize); a
    # bare interpreter (-S) does not import typing either
    code = ("import sys, finmod; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
