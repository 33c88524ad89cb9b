"""Instance file round trips and the command-line surface."""

import io
import contextlib

import pytest

from finmod.algebra import (
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

    def test_product_zero(self, z4_file):
        code, out, _ = run_cli("product", z4_file, "--left", "<0>", "--right", "<2>")
        assert code == 0
        assert out.strip() == "<0>"

    def test_power(self, z4_file):
        code, out, _ = run_cli("power", z4_file, "--sub", "<2>")
        assert code == 0
        assert "terminal = zero(2)" in out

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

    def test_oracle_radical(self, z4_file):
        code, out, _ = run_cli("oracle", z4_file, "--op", "radical")
        assert code == 0
        assert "L = <2>" in out

    def test_exit_code_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ring"
        bad.write_text("[ring]\nname = X\norders = 4\nmul 0 0 = 1\n")
        code, _, err = run_cli("validate", str(bad))
        assert code == 3

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

        assert code == 0
        data = json.loads(out)
        assert data["counts"]["fail"] == 0
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
