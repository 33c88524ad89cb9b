"""Instance file round trips and the command-line surface."""

import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finmod.algebra import (
    ValidationError,
    cyclic_module,
    direct_sum,
    matrix_ring,
    product_ring,
    regular_module,
    triangular_ring,
    zn_ring,
)
from finmod.cli import (
    ParseError,
    main,
    parse_instance_text,
    resolve_submodule,
    serialize_instance,
)


Z4_TEXT = """\
# comments start with '#'
[ring]
name = Z4
orders = 4            # additive invariant factors, divisibility chain
labels = 1
unit = 1              # coefficient vector
mul 0 0 = 1           # struct consts: basis_i basis_j = coeff vector
[module]
name = regular
inv_factors = 4
labels = 1
action 0 = [[1]]      # action matrix of ring basis element 0
"""

WITNESS = str(Path(__file__).resolve().parent / "golden" / "d-plus-z3.ring")


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.ring"
    path.write_text(Z4_TEXT)
    return str(path)


@pytest.fixture()
def t2_file(tmp_path):
    ring = triangular_ring(2, 2)
    path = tmp_path / "t2.ring"
    path.write_text(serialize_instance(ring, regular_module(ring)))
    return str(path)


class TestInstanceFormat:
    def test_parse_z4(self):
        ring, module = parse_instance_text(Z4_TEXT)
        assert ring.order == 4 and module.order == 4

    def test_round_trip_bit_exact(self):
        for ring in [
            zn_ring(4),
            zn_ring(6),
            zn_ring(27),
            triangular_ring(2, 2),
            triangular_ring(3, 2),
            triangular_ring(2, 3),
            matrix_ring(2, 2),
            matrix_ring(2, 3),
            product_ring([zn_ring(2), zn_ring(4)]),
            product_ring([zn_ring(4), zn_ring(6)]),
        ]:
            module = regular_module(ring)
            text = serialize_instance(ring, module)
            ring2, module2 = parse_instance_text(text)
            assert ring2 == ring
            assert module2 == module
            assert serialize_instance(ring2, module2) == text

    def test_missing_unit(self):
        bad = Z4_TEXT.replace("unit = 1              # coefficient vector\n", "")
        with pytest.raises(ParseError):
            parse_instance_text(bad)

    def test_unknown_key(self):
        bad = Z4_TEXT + "\nfoo = bar\n"
        with pytest.raises(ParseError):
            parse_instance_text(bad)

    def test_triangular_file(self):
        ring = triangular_ring(2, 2)
        text = serialize_instance(ring, regular_module(ring))
        ring2, module2 = parse_instance_text(text)
        assert ring2.order == 8
        assert ring2.labels == ("e11", "e12", "e22")


class TestResolveSubmodule:
    def test_zero(self):
        m = regular_module(zn_ring(4))
        assert resolve_submodule(m, "<0>").is_zero()

    def test_plain_integer(self):
        m = regular_module(zn_ring(4))
        assert resolve_submodule(m, "<2>").order == 2

    def test_labels(self):
        m = regular_module(triangular_ring(2, 2))
        sub = resolve_submodule(m, "<e12>")
        assert sub.order == 2
        two_sided = resolve_submodule(m, "<e12, e22>")
        assert two_sided.order == 4

    def test_sum_terms(self):
        m = regular_module(triangular_ring(2, 2))
        sub = resolve_submodule(m, "<e11+e12>")
        assert sub.order == 2

    def test_unknown_label(self):
        m = regular_module(zn_ring(4))
        with pytest.raises(ValueError):
            resolve_submodule(m, "<e99>")


class TestCommands:
    def test_radical_output(self, z4_file):
        code, out, _ = run_cli("radical", z4_file)
        assert code == 0
        assert "L = <2>" in out
        assert "prime_radical = <2>" in out
        assert "nilpotency_index = 2" in out

    @pytest.mark.parametrize(
        "module, text",
        [
            (
                "T2(Z2)",
                "L = <e12>\n"
                "prime_radical = <e12>\n"
                "nilpotency_index = 2\n"
                "primes = <e12, e22>; <e11, e12>\n"
                "semiprimes = <e12>; <e12, e22>; <e11, e12>\n",
            ),
            (
                "T2(Z2)^2",
                "L = <g1, g4>\n"
                "prime_radical = <g1, g4>\n"
                "nilpotency_index = 2\n"
                "primes = <g1, g2, g4, g5>; <g0, g1, g3, g4>\n"
                "semiprimes = <g1, g4>; <g1, g2, g4, g5>; <g0, g1, g3, g4>\n",
            ),
            (
                # not quasi-projective, so the diagnostic line prints
                "Z2+Z4 over Z4",
                "L = <2*g1>\n"
                "prime_radical = <2*g1>\n"
                "nilpotency_index = 2\n"
                "primes = <2*g1>; <g0, 2*g1>\n"
                "semiprimes = <2*g1>; <g0, 2*g1>\n"
                "ell_locally_nilpotent = true\n",
            ),
        ],
    )
    def test_radical_text(self, tmp_path, module, text):
        t2 = triangular_ring(2, 2)
        z4 = zn_ring(4)
        ring, m = {
            "T2(Z2)": (t2, regular_module(t2)),
            "T2(Z2)^2": (t2, direct_sum(regular_module(t2), regular_module(t2))[0]),
            "Z2+Z4 over Z4": (z4, direct_sum(cyclic_module(z4, 2), regular_module(z4))[0]),
        }[module]
        path = tmp_path / "m.ring"
        path.write_text(serialize_instance(ring, m))
        assert run_cli("radical", str(path)) == (0, text, "")

    @pytest.mark.parametrize(
        "module, text",
        [
            (
                "T2(Z2)",
                "module = T2(Z2) regular\n"
                "order = 8\n"
                "inv_factors = 2, 2, 2\n"
                "quasi_projective = true\n"
                "retractable = true\n"
                "goldie = true\n"
                "uniform_dim = 2\n"
                "annihilator_lattice_size = 5\n",
            ),
            (
                "Z2+Z4 over Z4",
                "module = Z2 (+) Z4 regular\n"
                "order = 8\n"
                "inv_factors = 2, 4\n"
                "quasi_projective = false\n"
                "retractable = true\n"
                "goldie = true\n"
                "uniform_dim = 2\n"
                "annihilator_lattice_size = 8\n",
            ),
            (
                # End(Z2^4) = M4(Z2) has 2^16 elements, past MAX_END_ELEMENTS
                "Z2^4",
                "module = Z2 regular (+) Z2 regular (+) Z2 regular (+) Z2 regular\n"
                "order = 16\n"
                "inv_factors = 2, 2, 2, 2\n"
                "quasi_projective = true\n"
                "retractable = true\n"
                "goldie = true\n"
                "uniform_dim = 4\n"
                "annihilator_lattice_size = none\n",
            ),
        ],
        ids=["T2(Z2)", "Z2+Z4 over Z4", "Z2^4"],
    )
    def test_predicates_text(self, tmp_path, module, text):
        t2, z4, z2 = triangular_ring(2, 2), zn_ring(4), zn_ring(2)
        free4 = regular_module(z2)
        for _ in range(3):
            free4 = direct_sum(free4, regular_module(z2))[0]
        ring, m = {
            "T2(Z2)": (t2, regular_module(t2)),
            "Z2+Z4 over Z4": (z4, direct_sum(cyclic_module(z4, 2), regular_module(z4))[0]),
            "Z2^4": (z2, free4),
        }[module]
        path = tmp_path / "m.ring"
        path.write_text(serialize_instance(ring, m))
        assert run_cli("predicates", str(path)) == (0, text, "")

    def test_predicates_on_the_triangular_cube_under_a_small_lattice_cap(self, tmp_path):
        # Read from a file, T2(Z2)^3 (order 512) is not a recorded sum, and
        # a fresh interpreter shares no analysis with one.  Quasi-projectivity
        # is a split test and the End cap stops the annihilator lattice
        # before it is listed, so a lattice cap of 10 is never met.
        ring = triangular_ring(2, 2)
        reg = regular_module(ring)
        path = tmp_path / "cube.ring"
        path.write_text(serialize_instance(ring, direct_sum(direct_sum(reg, reg)[0], reg)[0]))
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "finmod.cli", "--max-lattice", "10", "predicates", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert "quasi_projective = true\n" in done.stdout

    def test_product_zero(self, z4_file):
        code, out, _ = run_cli("product", z4_file, "--left", "<0>", "--right", "<2>")
        assert code == 0
        assert out.strip() == "<0>"

    def test_power(self, z4_file):
        code, out, _ = run_cli("power", z4_file, "--sub", "<2>")
        assert code == 0
        assert "terminal = zero(2)" in out

    def test_power_lists_at_most_max_members(self, z4_file):
        code, out, _ = run_cli("power", z4_file, "--sub", "<2>", "--max", "1")
        assert (code, out) == (0, "power 1 = <2>\nterminal = zero(2)\n")

    def test_power_prints_the_nesting_divergence(self, tmp_path):
        ring = zn_ring(27)
        module = direct_sum(cyclic_module(ring, 3), cyclic_module(ring, 27))[0]
        path = tmp_path / "z3z27.ring"
        path.write_text(serialize_instance(ring, module))
        code, out, _ = run_cli("power", str(path), "--sub", "<g0+3*g1, 9*g1>")
        assert code == 0
        assert out == ("power 1 = <g0+3*g1, 9*g1>\npower 2 = <9*g1>\npower 3 = <0>\n"
                       "terminal = zero(3)\nnesting_divergence = 3\n")

    def test_hom(self, z4_file):
        code, out, _ = run_cli("hom", z4_file, "--target", "<2>")
        assert code == 0
        assert "invariants = [2]" in out

    def test_validate_t2(self, t2_file):
        code, out, _ = run_cli("validate", t2_file)
        assert code == 0
        assert "quasi_projective = true" in out

    def test_predicates(self, z4_file):
        code, out, _ = run_cli("predicates", z4_file)
        assert code == 0
        assert "uniform_dim = 1" in out

    def test_oracle_hom_lists_up_to_the_limit(self, z4_file):
        code, out, _ = run_cli("oracle", z4_file, "--op", "hom", "--limit", "2")
        assert code == 0
        assert out == "endomorphisms = 4\n[[0]]\n[[1]]\n"

    def test_oracle_radical(self, z4_file):
        code, out, _ = run_cli("oracle", z4_file, "--op", "radical")
        assert code == 0
        assert "L = <2>" in out

    def test_exit_code_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ring"
        bad.write_text("[ring]\nname = X\norders = 4\nmul 0 0 = 1\n")
        code, _, err = run_cli("validate", str(bad))
        assert code == 3

    @pytest.mark.parametrize("matrix", ["[[1.9]]", "[['1']]", "[[True]]", "[[[1]]]"])
    def test_non_integer_matrix_entries_are_parse_errors(self, tmp_path, matrix):
        bad = tmp_path / "bad.ring"
        bad.write_text(Z4_TEXT.replace("action 0 = [[1]]", f"action 0 = {matrix}"))
        with pytest.raises(ParseError, match="matrix entries must be integers"):
            parse_instance_text(bad.read_text())
        code, out, _ = run_cli("predicates", str(bad))
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("old, new", [
        ("orders = 4", "orders = 1_0"),
        ("inv_factors = 4", "inv_factors = 1_0"),
        ("orders = 4", "orders = ４"),
        ("unit = 1", "unit = +1"),
        ("mul 0 0", "mul 0_0 0"),
        ("mul 0 0", "mul ０ 0"),
        ("action 0 =", "action 0_0 ="),
        ("action 0 =", "action ０ ="),
        ("action 0 = [[1]]", "action 0 = [[1_0]]"),
        ("action 0 = [[1]]", "action 0 = [[- 1]]"),
    ])
    def test_integers_are_ascii_decimal(self, tmp_path, old, new):
        # an optional '-' then ASCII digits; Python's other integer forms
        # (underscores, a sign '+', full-width digits) are parse errors
        bad = tmp_path / "bad.ring"
        bad.write_text(Z4_TEXT.replace(old, new, 1))
        with pytest.raises(ParseError):
            parse_instance_text(bad.read_text())
        code, out, _ = run_cli("validate", str(bad))
        assert (code, out) == (3, "")

    def test_negative_integers_parse(self):
        # '-3' is an integer, so the file is read and the module's
        # validation rejects the unreduced entry
        bad = Z4_TEXT.replace("action 0 = [[1]]", "action 0 = [[-3]]")
        with pytest.raises(ValidationError, match="not reduced"):
            parse_instance_text(bad)

    @pytest.mark.parametrize("section", ["ring", "module"])
    @pytest.mark.parametrize("labels", ["e11, e12", "e11, e11, e22", "", "e11, , e22"])
    def test_labels_name_each_basis_element_once(self, tmp_path, section, labels):
        # a short, repeated or empty label would resolve '<e11>' to another
        # generator, or index past the last one
        ring = triangular_ring(2, 2)
        head, sep, tail = serialize_instance(ring, regular_module(ring)).partition("[module]")
        old, new = "labels = e11, e12, e22", f"labels = {labels}"
        if section == "ring":
            head = head.replace(old, new)
        else:
            tail = tail.replace(old, new)
        bad = tmp_path / "bad.ring"
        bad.write_text(head + sep + tail)
        with pytest.raises(ParseError):
            parse_instance_text(bad.read_text())
        code, out, _ = run_cli("product", str(bad), "--left", "<e11>", "--right", "<e11>")
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("argv", [
        ("power", WITNESS, "--sub", "<3_0*g2>"),
        ("product", WITNESS, "--left", "<１*g0>", "--right", "<g0>"),
        ("power", "FILE", "--sub", "<1_0>"),
    ])
    def test_submodule_coefficients_are_ascii_decimal(self, z4_file, argv):
        # the instance file's integer rule: not 30, 1 and 10 as int() reads them
        code, out, _ = run_cli(*(z4_file if a == "FILE" else a for a in argv))
        assert (code, out) == (2, "")

    def test_negative_submodule_coefficients_parse(self, z4_file):
        t2 = regular_module(triangular_ring(2, 2))
        assert resolve_submodule(t2, "<-1*e12>") == resolve_submodule(t2, "<e12>")
        assert run_cli("power", z4_file, "--sub", "<-2>") == (
            0, "power 1 = <2>\npower 2 = <0>\nterminal = zero(2)\n", "")

    def test_exit_code_validation_error(self, tmp_path):
        bad = tmp_path / "bad.ring"
        bad.write_text(
            "[ring]\nname = X\norders = 4\nunit = 0\nmul 0 0 = 1\n"
            "[module]\nname = m\ninv_factors = 4\naction 0 = [[1]]\n"
        )
        code, _, err = run_cli("validate", str(bad))
        assert code == 3

    def test_exit_code_usage(self, z4_file):
        code, _, err = run_cli("product", z4_file, "--left", "<zz>", "--right", "<0>")
        assert code == 2

    def test_missing_file(self):
        code, _, err = run_cli("validate", "/nonexistent/file.ring")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--max-lattice", "0", "predicates", "FILE"),
        ("--max-lattice", "-3", "predicates", "FILE"),
        ("--max-module-order", "0", "predicates", "FILE"),
        ("--max-lattice", "ten", "predicates", "FILE"),
        ("verify", "--jobs", "0"),
        ("power", "FILE", "--sub", "<2>", "--max", "0"),
        ("verify", "--budget", "0"),
        ("verify", "--budget", "-5"),
        ("search", "--statement", "THM-MAIN", "--drop", "retractable", "--budget", "0"),
        ("oracle", "FILE", "--op", "hom", "--limit", "-1"),
        ("oracle", "FILE", "--op", "hom", "--limit", "0"),
    ])
    def test_out_of_range_numbers_are_usage_errors(self, z4_file, argv):
        # a cap, a worker count, a power count, a corpus budget or a listing
        # limit below 1 is refused: not read as the default, as an empty
        # corpus whose all-zero summary exits 0, or as a slice that drops
        # the last endomorphism
        code, out, err = run_cli(*(z4_file if a == "FILE" else a for a in argv))
        assert code == 2 and not out
        assert "invalid positive_int value" in err

    def test_in_range_caps_are_read(self, z4_file):
        assert run_cli("--max-lattice", "1", "predicates", z4_file)[0] == 4
        assert run_cli("--max-module-order", "1", "predicates", z4_file)[0] == 4
        assert run_cli("--max-lattice", "3", "--max-module-order", "4", "predicates", z4_file)[0] == 0


class TestVerifyCommand:
    def test_small_verify_green(self, tmp_path):
        code, out, _ = run_cli(
            "verify", "--corpus-seed", "0", "--budget", "4",
            "--only", "COR-NESL,LEM-RANNINTERSECTION,PROP-SUBM",
            "--witness-dir", str(tmp_path / "w"),
        )
        assert code == 0
        assert "summary:" in out
        assert "fail=0" in out

    def test_small_lattice_cap_leaves_out_the_families_that_meet_it(self):
        # T3(Z2) has more than 10 fully invariant ideals, so its quotient
        # family is left out, and its own checks are skips with the reason
        code, out, _ = run_cli(
            "--max-lattice", "10", "verify", "--corpus-seed", "0", "--budget", "110",
            "--only", "THM-MAIN,COR-NESL",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("summary: pass=")
        assert " fail=0 " in out.splitlines()[-1]
        assert "T3(Z2)-regular/fi" not in out
        assert "SKIP THM-MAIN T3(Z2)-regular (fully invariant members: reached 10" in out
        assert "PASS THM-MAIN T2(Z2)-regular/fi1 " in out

    def test_search_command(self):
        code, out, _ = run_cli(
            "search", "--statement", "COR-NESL", "--drop", "quasi_projective",
            "--budget", "6",
        )
        assert code == 0
        assert "findings" in out

    def test_json_dump(self):
        code, out, _ = run_cli(
            "verify", "--corpus-seed", "0", "--budget", "3",
            "--only", "COR-NESL", "--json",
        )
        import json

        from finmod.harness import generate_corpus, run_suite

        assert code == 0
        data = json.loads(out)
        summary = run_suite(generate_corpus(0, budget=3), ["COR-NESL"])
        assert data["counts"] == summary.counts and data["counts"]["fail"] == 0
        fields = [f for f in summary.reports[0]._fields if f != "elapsed"]
        assert data["reports"] == [dict(zip(fields, r)) for r in summary.reports]
        assert len(data["reports"]) == 3

    def test_witness_files_round_trip(self, tmp_path):
        from finmod.cli import parse_instance, write_witness_files
        from finmod.harness import (
            SuiteSummary,
            VerificationReport,
            generate_corpus,
        )

        corpus = generate_corpus(0, budget=2)
        report = VerificationReport(
            statement="THM-MAIN",
            instance=corpus.instances[0].name,
            outcome="fail",
            witness="<g0>",
        )
        summary = SuiteSummary(
            reports=(report,),
            counts={"pass": 0, "fail": 1, "hypothesis_not_met": 0, "skipped": 0},
            failed=(report,),
        )
        paths = write_witness_files(summary, corpus, str(tmp_path / "w"))
        assert len(paths) == 1
        ring, module = parse_instance(paths[0])
        assert module == corpus.instances[0].module
        with open(paths[0]) as f:
            text = f.read()
        assert "# statement: THM-MAIN" in text and "# witness: <g0>" in text
