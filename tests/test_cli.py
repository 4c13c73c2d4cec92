import json
import random
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubasis import grobner
from mubasis.arith import VARS_ST, Poly
from mubasis.cli import main, parse_parametrization, run
from mubasis.errors import (
    CompletionError,
    InternalError,
    ParseError,
    ResourceLimitError,
    VerificationError,
)
from mubasis.parser import parse_basis, parse_polynomial, parse_tuple
from helpers import random_poly

S = Poly.variable(VARS_ST, "s")
T = Poly.variable(VARS_ST, "t")

REFERENCE = "(s^2, t^2, s^2-1, s^2+1)"
REFERENCE_BASIS = "(-t^2, 1, t^2, 0) (-2, 0, 1, 1) (1-s^2, 0, s^2, 0)"
# full_d2/1 of the benchmark corpus, seed 1
FULL_D2_1 = "(-2*s*t - t^2, -3*s*t + 2*t^2 + s + 2, -2*s*t + 2*s + 2, t^2 + 3*s + 2*t + 1)"
# N = 2500 sevens: the pd2 basis has a coefficient of 16,609 bits, past the
# 4300 digits that str converts by default
SEVENS = "7" * 2500
BIG = f"({SEVENS}*s^2 + t, {SEVENS}*t^2 + s, s*t + 1, {SEVENS})"


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
        assert parse_tuple("(" + ", ".join(str(p) for p in polys) + ")") == polys

    def test_print_parse_roundtrip_past_the_digit_limit(self):
        p = (10**4999 + 7) * S**2 - Fraction(3, 10**4400 + 1) * T
        text = str(p)
        assert len(text) > 9400 and text.startswith("1" + "0" * 4998 + "7*s^2 - 3/1")
        assert parse_polynomial(text) == p

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet="0123456789\u00b2\u0663\uff10\u2075\U0001d7d9st+-*/^ ",
                            max_size=12), min_size=4, max_size=4))
    def test_mixed_digits_raise_only_parse_errors(self, parts):
        try:
            parse_tuple("(" + ", ".join(parts) + ")")
        except (ParseError, ResourceLimitError):
            pass


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

    @pytest.mark.parametrize("command", ["compute", "resolve", "bounds"])
    def test_one_resolution_per_command(self, command, monkeypatch):
        # every binding of free_resolution in the library counts
        real = grobner.free_resolution
        calls = []

        def counting(gens):
            calls.append(len(gens))
            return real(gens)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mubasis" and getattr(module, "free_resolution", None) is real:
                monkeypatch.setattr(module, "free_resolution", counting)
        _, code, _ = run(command, parse_parametrization(REFERENCE))
        assert code == 0 and calls == [4]

    @pytest.mark.parametrize("command", ["compute", "resolve", "bounds"])
    @pytest.mark.parametrize("text", [REFERENCE, FULL_D2_1], ids=["reference", "full_d2/1"])
    def test_no_command_builds_the_polys_of_first_basis(self, command, text, monkeypatch):
        """The ring, the leads and the Hilbert function of first_basis are
        read off the engine's keys, so its generators are never built."""
        resolutions = []
        real = grobner.FreeResolution.validate
        monkeypatch.setattr(grobner.FreeResolution, "validate",
                            lambda res: resolutions.append(res) or real(res))
        _, code, _ = run(command, parse_parametrization(text))
        assert code == 0 and resolutions
        assert all("generators" not in res.first_basis.__dict__ for res in resolutions)

    def test_coefficients_past_the_digit_limit(self):
        doc, code, _ = run("compute", parse_parametrization(BIG))
        assert code == 0 and doc["branch"] == "pd2" and doc["degrees"] == [1, 2, 2]
        assert max(len(c) for v in doc["basis"] for c in v) > 5000
        basis = " ".join("(" + ", ".join(v) + ")" for v in doc["basis"])
        checked, code, _ = run("verify", parse_parametrization(BIG), basis_text=basis)
        assert code == 0 and checked["alpha"] == doc["alpha"]

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

    def test_input_file_not_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xff\xfe" + REFERENCE.encode("utf-16-le"))
        assert main(["compute", "-i", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e12"])
    def test_timeout_no_timer_holds_exit_two(self, value, capsys):
        """A timeout that is not finite, or past the platform's time_t, is
        invalid input; the SIGALRM handler is left as it was."""
        handler = signal.getsignal(signal.SIGALRM)
        assert main(["compute", REFERENCE, f"--timeout={value}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --timeout") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert signal.getsignal(signal.SIGALRM) is handler

    @pytest.mark.parametrize("flag", ["--timeout", "--time"])
    def test_timeout_negative_infinity_as_two_words_exit_two(self, flag, capsys):
        # argparse takes a lone -inf for an option; the value reaches the check
        assert main(["compute", REFERENCE, flag, "-inf", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --timeout must be a finite number of seconds, not -inf\n"

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5", "-1e5", "-2E-1"])
    def test_timeout_zero_or_negative_sets_no_alarm(self, value, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(signal, "setitimer", lambda *args: calls.append(args))
        assert main(["compute", REFERENCE, "--timeout", value, "--json"]) == 0
        assert calls == []

    def test_max_degree_flag_exit_four(self, capsys):
        code = main(["compute", REFERENCE, "--max-degree", "1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert "exceeds" in doc["error"]["message"]

    @pytest.mark.parametrize("command", ["compute", "resolve", "bounds"])
    @pytest.mark.parametrize("text", ["(s^40000, t, 1, s)", "(s, t, 1, s^20000*t^20000)",
                                      "(s^40000 + , t, 1, 1)"])
    def test_term_past_the_packed_degree_exit_four(self, command, text, capsys):
        """The parser checks the degree of every term as it reads it, so a
        total degree past 32767 stops parsing, before a syntax error further
        on: a resource limit (exit 4), not a parser defect (exit 3)."""
        code = main([command, text, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert doc == {"command": command, "input": text, "seed": 0,
                       "error": {"code": 4, "message": "a monomial degree exceeds 32767"}}

    @pytest.mark.parametrize("argv, code", [
        (["compute", "(2\u00b2, t, 1, 1)"], 2), (["compute", "(\u00b2, t, 1, 1)"], 2),
        (["compute", "(1/\u00b2, t, 1, 1)"], 2), (["compute", "(s^\u00b2, t, 1, 1)"], 2),
        (["compute", "(\u0663s, t, 1, 1)"], 2),
        (["verify", "(\u00b2, 1, 1, 1)", "--basis", "(1,1,1,1) (1,1,1,1) (1,1,1,1)"], 2),
        (["compute", "(" + "1" * 4401 + "*s, t, 1, 1)"], 0),
    ])
    def test_digits_exit_two_or_zero_never_three(self, argv, code, capsys):
        """Only ASCII 0-9 are digits: '\u00b2' and '\u0663' are parse errors
        (exit 2), and a literal past 4300 digits parses (exit 0)."""
        assert main(argv + ["--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc.get("error", {"code": 0})["code"] == code

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

    @pytest.mark.parametrize("error, code, message", [
        (InternalError, 3, "stage failed"),
        (CompletionError, 3, "stage failed"),
        (ResourceLimitError, 4, "stage failed"),
        (VerificationError, 2, "verification failed: stage failed"),
    ])
    def test_library_errors_map_to_exit_codes(self, error, code, message, capsys,
                                              monkeypatch):
        def broken(*args, **kwargs):
            raise error("stage failed")

        monkeypatch.setattr("mubasis.cli.compute_mu_basis", broken)
        doc, got, _ = run("compute", parse_parametrization(REFERENCE))
        assert got == code and doc["error"] == {"code": code, "message": message}
        assert main(["compute", REFERENCE, "--json"]) == code
        assert json.loads(capsys.readouterr().out)["error"] == doc["error"]
        # main's guard around run maps an error out of run itself the same way
        monkeypatch.setattr("mubasis.cli.run", broken)
        assert main(["compute", REFERENCE, "--json"]) == code
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == doc["error"]
        assert "Traceback" not in captured.err

    def test_timeout_exit_four(self, capsys):
        dense = ("(3s^3+2s^2*t-st^2+t^3-s+1, s^3-3s*t^2+2t-1,"
                 " 2s^2*t+3t^3-s^2+s, s^3+s^2*t+st^2-2t^3+t)")
        code = main(["compute", dense, "--timeout", "0.05", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 4
        assert "timed out" in doc["error"]["message"]
