"""Command line front end: compute | resolve | bounds | verify.

Machine output (--json) is a single structured document on stdout whose
polynomial values are canonical grammar strings; identical (input, seed)
pairs produce byte-identical documents.  Wall-clock timings are therefore
reported on stderr, never inside the document.

Exit codes: 0 success, 2 invalid input, 3 internal verification failure
(including any unexpected exception, which is reported by type and never as
a traceback), 4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import Poly
from .bounds import BoundsReport
from .errors import (
    CompletionError,
    InputError,
    InternalError,
    MuBasisError,
    ResourceLimitError,
    VerificationError,
)
from .grobner import free_resolution, resolution_invariants
from .parser import parse_basis, parse_tuple
from .pipeline import compute_mu_basis, homogenize_ideal, validate, verify_mu_basis

DEFAULT_MAX_DEGREE = 20
DEFAULT_TIMEOUT = 300.0

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_LIMIT = 4


@dataclass
class InputSpec:
    """Parsed command input: expression strings, their Poly values, limits."""

    expressions: tuple
    polys: tuple
    seed: int = 0
    max_degree: int = DEFAULT_MAX_DEGREE


def parse_parametrization(text: str, seed: int = 0,
                          max_degree: int = DEFAULT_MAX_DEGREE) -> InputSpec:
    """Parse "(e1, e2, e3, e4)" into an InputSpec with canonical echoes."""
    polys = parse_tuple(text)
    return InputSpec(expressions=tuple(str(p) for p in polys), polys=polys,
                     seed=seed, max_degree=max_degree)


def _jsonify(obj):
    if isinstance(obj, Poly):
        return str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, BoundsReport):
        return _jsonify(obj.__dict__)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, float):
        return obj
    return obj


def _bounds_doc(report: BoundsReport) -> dict:
    return {
        "case": report.case,
        "case_value": report.case_value,
        "case_values": _jsonify(report.case_values),
        "values": {
            "reg_bound": report.reg_bound,
            "beta2_bound": report.beta2_bound,
            "beta2_bound_equal": report.beta2_bound_equal,
            "beta1_bound": report.beta1_bound,
            "height3_beta1_bound": report.height3_beta1_bound,
            "height3_beta2_bound": report.height3_beta2_bound,
            "lazard": report.lazard,
            "D": report.D,
            "qs_bound": report.qs_bound,
            "basis_bound": report.basis_bound,
        },
        "observed": _jsonify(report.observed),
        "verdicts": [
            {
                "name": v.name,
                "bound": v.bound,
                "observed": v.observed,
                "passed": v.passed,
                "applicable": v.applicable,
            }
            for v in report.verdicts
        ],
        "all_passed": report.all_passed(),
    }


def _resolution_doc(report) -> dict:
    return {
        "ranks": [len(report.shifts_first), len(report.shifts_middle),
                  len(report.shifts_last)],
        "shifts": {
            "first": [-s for s in report.shifts_first],
            "middle": [-s for s in report.shifts_middle],
            "last": [-s for s in report.shifts_last],
        },
    }


def run(command: str, spec: InputSpec, basis_text: str | None = None):
    """Execute one command; returns (document, exit_code, timings)."""
    doc = {"command": command, "input": list(spec.expressions), "seed": spec.seed}
    try:
        par = validate(spec.polys)
        if par.d > spec.max_degree:
            raise ResourceLimitError(
                f"input degree {par.d} exceeds the limit {spec.max_degree}")
        doc["warnings"] = list(par.warnings)
        doc["d"] = par.d
        if command == "compute":
            mb, report = compute_mu_basis(par)
            doc["branch"] = report.branch
            doc["basis"] = [[str(c) for c in v] for v in mb.vectors]
            doc["alpha"] = str(mb.alpha)
            doc["degrees"] = list(mb.degrees)
            doc["degree_sum"] = mb.degree_sum
            doc["mu"] = list(report.mu) if report.mu is not None else None
            doc["resolution"] = _resolution_doc(report)
            doc["invariants"] = {
                "a": report.beta2,
                "beta2": report.beta2,
                "gamma1": report.gamma1,
                "gamma2": report.gamma2,
            }
            doc["completion"] = _jsonify(report.completion)
            doc["bounds"] = _bounds_doc(report.bounds)
            return doc, EXIT_OK, report.timings
        if command == "resolve":
            b, d = homogenize_ideal(par)
            res = free_resolution(list(b))
            table, inv = resolution_invariants(res)
            doc["generators"] = [str(x) for x in b]
            doc["ranks"] = list(res.ranks)
            doc["shifts"] = {
                "first": [-s for s in res.shifts0],
                "middle": [-s for s in res.q],
                "last": [-s for s in res.p],
            }
            doc["invariants"] = _jsonify(inv)
            doc["betti"] = {f"{i},{p}": v for (i, p), v in sorted(table.entries.items())}
            return doc, EXIT_OK, {}
        if command == "bounds":
            from .bounds import report_for_resolution

            b, d = homogenize_ideal(par)
            res = free_resolution(list(b))
            report = report_for_resolution(res, d, 4)
            doc["bounds"] = _bounds_doc(report)
            return doc, EXIT_OK, {}
        if command == "verify":
            if basis_text is None:
                raise InputError("verify requires a --basis argument")
            basis = parse_basis(basis_text)
            doc["basis"] = [[str(c) for c in v] for v in basis]
            alpha = verify_mu_basis(basis, par)
            doc["alpha"] = str(alpha)
            doc["checks"] = {
                "moving_planes": True,
                "outer_product_proportional": True,
                "generates_syzygy_module": True,
            }
            return doc, EXIT_OK, {}
        raise InputError(f"unknown command {command!r}")
    except InputError as exc:
        return _error_doc(doc, EXIT_INPUT, str(exc)), EXIT_INPUT, {}
    except VerificationError as exc:
        return _error_doc(doc, EXIT_INPUT, f"verification failed: {exc}"), EXIT_INPUT, {}
    except ResourceLimitError as exc:
        return _error_doc(doc, EXIT_LIMIT, str(exc)), EXIT_LIMIT, {}
    except (InternalError, CompletionError) as exc:
        return _error_doc(doc, EXIT_INTERNAL, str(exc)), EXIT_INTERNAL, {}
    except Exception as exc:  # a defect deep in the library; keep the exit contract
        return _error_doc(doc, EXIT_INTERNAL, _unexpected(exc)), EXIT_INTERNAL, {}


def _unexpected(exc: Exception) -> str:
    return f"internal error ({type(exc).__name__}: {exc})"


def _error_doc(doc, code, message):
    doc = dict(doc)
    doc["error"] = {"code": code, "message": message}
    return doc


def _render_human(doc, out):
    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            out.write(f"{pad}{key}:\n")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            out.write(f"{pad}{key}:\n")
            for i, v in enumerate(value):
                emit(str(i), v, indent + 1)
        else:
            out.write(f"{pad}{key}: {value}\n")

    for k, v in doc.items():
        emit(k, v)


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler for library
    errors can swallow it."""


def _alarm_handler(signum, frame):
    raise _Timeout()


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mubasis",
        description="Compute and verify mu-bases of rational surface "
                    "parametrizations P(s,t) = (a1, a2, a3, a4).",
        epilog="Input grammar: a tuple \"(e1, e2, e3, e4)\" where each e is a "
               "signed sum of terms; a term is an optional rational "
               "coefficient (like 2 or 1/2, '*' optional, implicit "
               "multiplication '2s' accepted) times powers of s and t "
               "written with '^' ('**' is rejected). The verify command "
               "takes three such tuples via --basis.",
    )
    ap.add_argument("command", choices=["compute", "resolve", "bounds", "verify"])
    ap.add_argument("input", nargs="?", help="parametrization tuple (or use -i)")
    ap.add_argument("-i", "--input-file", help="read the input tuple from a UTF-8 file")
    ap.add_argument("--basis", help="three basis tuples for the verify command")
    ap.add_argument("--json", action="store_true", help="emit a JSON document")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed recorded in the document; no command's result depends on it")
    ap.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                    help="wall-clock limit in seconds")
    ap.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE,
                    help="largest admitted input degree")
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_intermixed_args(argv)
    if args.input is not None and args.input_file is not None:
        print("error: give either a positional input or -i, not both", file=sys.stderr)
        return EXIT_INPUT
    if args.input is not None:
        text = args.input
    elif args.input_file is not None:
        try:
            with open(args.input_file, encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        print("error: no input given", file=sys.stderr)
        return EXIT_INPUT

    base_doc = {"command": args.command, "input": text, "seed": args.seed}
    try:
        spec = parse_parametrization(text, seed=args.seed, max_degree=args.max_degree)
    except (InputError, ResourceLimitError) as exc:  # a term past the packed degree limit
        code = EXIT_LIMIT if isinstance(exc, ResourceLimitError) else EXIT_INPUT
        _emit(_error_doc(base_doc, code, str(exc)), args.json)
        return code
    except Exception as exc:  # a defect in the parser; keep the exit contract
        _emit(_error_doc(base_doc, EXIT_INTERNAL, _unexpected(exc)), args.json)
        return EXIT_INTERNAL

    use_alarm = hasattr(signal, "SIGALRM") and args.timeout > 0
    old = None
    if use_alarm:
        old = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
    try:
        doc, code, timings = run(args.command, spec, basis_text=args.basis)
    except _Timeout:
        doc, code, timings = (_error_doc(base_doc, EXIT_LIMIT,
                                         f"timed out after {args.timeout} s"),
                              EXIT_LIMIT, {})
    except MuBasisError as exc:
        doc, code, timings = (_error_doc(base_doc, EXIT_INTERNAL, str(exc)),
                              EXIT_INTERNAL, {})
    except Exception as exc:  # a defect deep in the library; keep the exit contract
        doc, code, timings = (_error_doc(base_doc, EXIT_INTERNAL, _unexpected(exc)),
                              EXIT_INTERNAL, {})
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    _emit(doc, args.json)
    if timings:
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in timings.items())
        print(f"timings: {parts}", file=sys.stderr)
    return code


def _emit(doc, as_json: bool):
    if as_json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        _render_human(doc, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
