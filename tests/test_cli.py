import json
import random
from fractions import Fraction

import pytest

from mubasis.arith import VARS_ST, Poly
from mubasis.cli import main, parse_parametrization, run
from mubasis.errors import ParseError
from mubasis.parser import parse_basis, parse_polynomial, parse_tuple, tuple_to_string
from helpers import random_poly

S = Poly.variable(VARS_ST, "s")
T = Poly.variable(VARS_ST, "t")

REFERENCE = "(s^2, t^2, s^2-1, s^2+1)"
REFERENCE_BASIS = "(-t^2, 1, t^2, 0) (-2, 0, 1, 1) (1-s^2, 0, s^2, 0)"


class TestParser:
    def test_reference_tuple(self):
        polys = parse_tuple(REFERENCE)
        assert polys == (S**2, T**2, S**2 - 1, S**2 + 1)

    def test_degenerate_tuple(self):
        spec = parse_parametrization("(1, 0, 0, 0)")
        assert spec.expressions == ("1", "0", "0", "0")

    def test_common_factor_parses_then_fails_validation(self):
        spec = parse_parametrization("(s, s, s, s)")
        doc, code, _ = run("compute", spec)
        assert code == 2
        assert "common factor s" in doc["error"]["message"]

    def test_rational_coefficients(self):
        assert parse_polynomial("1/2*s + 2/4") == S * Fraction(1, 2) + Fraction(1, 2)

    def test_implicit_multiplication(self):
        assert parse_polynomial("2s") == 2 * S
        assert parse_polynomial("2 s t^2") == 2 * S * T**2
        assert parse_polynomial("st") == S * T

    def test_double_star_rejected(self):
        with pytest.raises(ParseError, match="not supported"):
            parse_polynomial("s**2")

    def test_bad_variable(self):
        with pytest.raises(ParseError, match="not allowed"):
            parse_polynomial("s + x")

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="non-negative"):
            parse_polynomial("s^-2")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("s +")
        assert exc.value.position == 3

    def test_parse_print_roundtrip_canonical(self):
        rng = random.Random(5)
        for _ in range(40):
            p = random_poly(rng, VARS_ST, 3, coeff_bound=7)
            text = str(p)
            assert parse_polynomial(text) == p
            assert str(parse_polynomial(text)) == text

    def test_print_parse_idempotent(self):
        noisy = "t^2 + 2*s - s + 0 - t^2"
        once = str(parse_polynomial(noisy))
        assert once == "s"
        assert str(parse_polynomial(once)) == once

    def test_parse_basis(self):
        vectors = parse_basis(REFERENCE_BASIS)
        assert len(vectors) == 3
        assert vectors[0] == (-(T**2), Poly.const(VARS_ST, 1), T**2, Poly.zero(VARS_ST))

    def test_tuple_to_string_roundtrip(self):
        polys = parse_tuple(REFERENCE)
        assert parse_tuple(tuple_to_string(polys)) == polys


class TestRun:
    def test_compute_reference(self):
        spec = parse_parametrization(REFERENCE)
        doc, code, timings = run("compute", spec)
        assert code == 0
        assert doc["branch"] == "pd2"
        assert doc["alpha"] not in ("0", None)
        assert doc["invariants"] == {"a": 1, "beta2": 1, "gamma1": 2, "gamma2": 2}
        assert doc["bounds"]["all_passed"] is True
        assert "total" in timings

    def test_verify_reference_basis(self):
        spec = parse_parametrization(REFERENCE)
        doc, code, _ = run("verify", spec, basis_text=REFERENCE_BASIS)
        assert code == 0
        assert doc["alpha"] == "-1"
        assert all(doc["checks"].values())

    def test_verify_bad_basis(self):
        spec = parse_parametrization(REFERENCE)
        bad = "(1, 0, 0, 0) (0, 1, 0, 0) (0, 0, 1, 0)"
        doc, code, _ = run("verify", spec, basis_text=bad)
        assert code == 2
        assert "verification failed" in doc["error"]["message"]

    def test_resolve(self):
        spec = parse_parametrization(REFERENCE)
        doc, code, _ = run("resolve", spec)
        assert code == 0
        assert doc["ranks"] == [4, 4, 1]
        assert sorted(doc["shifts"]["middle"]) == [-4, -4, -4, -2]
        assert doc["shifts"]["last"] == [-6]

    def test_bounds(self):
        spec = parse_parametrization(REFERENCE)
        doc, code, _ = run("bounds", spec)
        assert code == 0
        assert doc["bounds"]["values"]["reg_bound"] == 4
        assert doc["bounds"]["all_passed"] is True

    def test_max_degree_limit(self):
        spec = parse_parametrization(REFERENCE, max_degree=1)
        doc, code, _ = run("compute", spec)
        assert code == 4


class TestMain:
    def test_compute_exit_zero(self, capsys):
        code = main(["compute", REFERENCE, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == "pd2"
        assert doc["alpha"] != "0"

    def test_common_factor_exit_two(self, capsys):
        code = main(["compute", "(s, s, s, s)", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "common factor s" in doc["error"]["message"]

    def test_syntax_error_exit_two(self, capsys):
        code = main(["compute", "(s, t, 1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "error" in doc

    def test_verify_alpha_minus_one(self, capsys):
        code = main(["verify", REFERENCE, "--basis", REFERENCE_BASIS, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["alpha"] == "-1"

    def test_byte_identical_documents(self, capsys):
        main(["compute", REFERENCE, "--json", "--seed", "7"])
        first = capsys.readouterr().out
        main(["compute", REFERENCE, "--json", "--seed", "7"])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_human_and_json_same_numbers(self, capsys):
        main(["compute", REFERENCE, "--json"])
        doc = json.loads(capsys.readouterr().out)
        main(["compute", REFERENCE])
        human = capsys.readouterr().out
        for key in ("d", "degree_sum"):
            assert f"{key}: {doc[key]}" in human
        assert f"alpha: {doc['alpha']}" in human

    @pytest.mark.parametrize("argv", [
        ["compute", "--json", REFERENCE, "--seed", "3"],
        ["compute", "--json", "--seed", "3", REFERENCE],
        ["--json", "compute", "--seed", "3", REFERENCE],
    ])
    def test_flags_before_or_after_input(self, argv, capsys):
        main(["compute", REFERENCE, "--json", "--seed", "3"])
        expected = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == expected.encode()

    def test_verify_flags_before_input(self, capsys):
        main(["verify", REFERENCE, "--basis", REFERENCE_BASIS, "--json"])
        expected = capsys.readouterr().out
        assert main(["verify", "--json", "--basis", REFERENCE_BASIS, REFERENCE]) == 0
        assert capsys.readouterr().out.encode() == expected.encode()

    def test_input_file_flag_first(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(REFERENCE + "\n", encoding="utf-8")
        main(["compute", REFERENCE, "--json"])
        expected = capsys.readouterr().out
        assert main(["--json", "-i", str(path), "compute"]) == 0
        assert capsys.readouterr().out == expected

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_text(REFERENCE + "\n", encoding="utf-8")
        code = main(["compute", "-i", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["d"] == 2

    def test_max_degree_flag_exit_four(self, capsys):
        code = main(["compute", REFERENCE, "--max-degree", "1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert "exceeds" in doc["error"]["message"]

    @pytest.mark.parametrize("command", ["compute", "resolve", "bounds"])
    @pytest.mark.parametrize("text", ["(s^40000, t, 1, s)", "(s, t, 1, s^20000*t^20000)"])
    def test_term_past_the_packed_degree_exit_four(self, command, text, capsys):
        """The parser packs every term, so a total degree past 32767 stops
        parsing: a resource limit (exit 4), not a parser defect (exit 3)."""
        code = main([command, text, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc == {"command": command, "input": text, "seed": 0,
                       "error": {"code": 4, "message": "a monomial degree exceeds 32767"}}

    def test_missing_input(self, capsys):
        code = main(["compute", "--json"])
        assert code == 2

    def test_degenerate_warning_present(self, capsys):
        code = main(["compute", "(1, 0, 0, 0)", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert any("zero" in w for w in doc["warnings"])

    def test_unexpected_exception_exit_three(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("deep defect")

        monkeypatch.setattr("mubasis.cli.compute_mu_basis", broken)
        code = main(["compute", REFERENCE, "--json"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 3
        assert doc["error"]["code"] == 3
        assert "ValueError" in doc["error"]["message"]
        assert doc["command"] == "compute" and doc["input"] == [
            "s^2", "t^2", "s^2 - 1", "s^2 + 1"]
        assert "Traceback" not in captured.err
        doc, code, _ = run("compute", parse_parametrization(REFERENCE))
        assert code == 3 and "ValueError" in doc["error"]["message"]

    def test_timeout_exit_four(self, capsys):
        dense = ("(3s^3+2s^2*t-st^2+t^3-s+1, s^3-3s*t^2+2t-1,"
                 " 2s^2*t+3t^3-s^2+s, s^3+s^2*t+st^2-2t^3+t)")
        code = main(["compute", dense, "--timeout", "0.05", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert "timed out" in doc["error"]["message"]
