"""Guards for the tooling around the library.

``perfbench/tracing.py`` wraps library functions by (module, attribute), so
a rename in ``mubasis`` would silently drop a span; it is loaded here by
path, without writing bytecode next to it.  The arithmetic base layer
imports no higher layer: ``mubasis.grobner`` and ``mubasis.quillen_suslin``
import it, so an import back would be a cycle.  The library has no
dependencies; sympy, hypothesis and numpy serve only the tests.  Every
name README.md lists as exported is an attribute of the package, and no
source line is longer than 100 characters.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import mubasis

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str) -> str:
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         timeout=120, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_tracing_targets_resolve_on_a_fresh_import():
    missing = _run(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import mubasis
missing = []
for module, attr, _ in tracing.TARGETS + tracing.CALL_SITES:
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append((module, attr))
print(missing)
""")
    assert missing == "[]"


def test_tracing_records_a_completion_and_no_block_inverse():
    # the harness's quillen_suslin.deg_M_* and arith.mat_inverse_* read these
    # spans: completion builds M^-1 step by step and calls no mat_inverse
    totals = _run(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from mubasis import quillen_suslin
from mubasis.arith import VARS_ST, Poly, PolyMatrix
s, t, one = Poly.variable(VARS_ST, "s"), Poly.variable(VARS_ST, "t"), Poly.const(VARS_ST, 1)
f = PolyMatrix([[s, t], [one, s], [t, one + s * t]])
tracer = tracing.Tracer()
handle = tracing.install(tracer)
try:
    quillen_suslin.complete_columns(f)
finally:
    handle.restore()
totals = tracing.layer_totals(tracer)
print([(name, totals[name]["calls"], totals[name]["attrs"])
       for name in ("quillen_suslin.complete_columns", "arith.mat_inverse") if name in totals])
""")
    assert totals == "[('quillen_suslin.complete_columns', 1, [{'deg_M': 3}])]", totals


def test_tracing_records_one_resolution_and_one_report_per_command():
    # compute and bounds both resolve once, through pipeline.resolve, and
    # hand that resolution to one bounds report; every command takes one
    # gcd, validate's, as homogenize_ideal proves its row coprime without one
    counts = _run(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from mubasis import cli
out = []
for command in ("compute", "bounds", "resolve"):
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        _, code, _ = cli.run(command, cli.parse_parametrization("(s^2, t^2, s^2-1, s^2+1)"))
    finally:
        handle.restore()
    totals = tracing.layer_totals(tracer)
    out.append((command, code) + tuple(totals.get(name, dict(calls=0))["calls"] for name in (
        "grobner.free_resolution", "bounds.report_for_resolution", "grobner.minimal_generators",
        "quillen_suslin.complete_columns", "grobner.syzygy_generators", "arith.gcd_many")))
print(out)
""")
    # the Betti numbers are read off d1, with no minimal-generator pass; the
    # reference tuple's three syzygy generators are its basis, so compute
    # runs no completion and builds the generators once
    assert counts == ("[('compute', 0, 1, 1, 0, 0, 1, 1), ('bounds', 0, 1, 1, 0, 0, 0, 1), "
                      "('resolve', 0, 1, 0, 0, 0, 0, 1)]"), counts


def test_tracing_records_no_groebner_basis_for_the_basis_triple():
    # the harness's grobner.buchberger_calls reads these spans: on full_d2/1
    # of the benchmark corpus (seed 1), three of four syzygy generators are
    # the basis, found by outer products, and verification writes the
    # generators in it by Cramer's rule; the four bases are the
    # resolution's one and interreduction's three
    calls = _run(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from mubasis import cli
tracer = tracing.Tracer()
handle = tracing.install(tracer)
try:
    _, code, _ = cli.run("compute", cli.parse_parametrization(
        "(-2*s*t - t^2, -3*s*t + 2*t^2 + s + 2, -2*s*t + 2*s + 2, t^2 + 3*s + 2*t + 1)"))
finally:
    handle.restore()
totals = tracing.layer_totals(tracer)
print((code, totals["grobner.buchberger"]["calls"], totals.get("quillen_suslin.complete_columns")))
""")
    assert calls == "(0, 4, None)", calls


def test_arith_imports_no_higher_layer():
    # the package __init__ imports every layer, so a bare package stands in
    # for it; the gcd runs too, to catch an import made inside a function
    loaded = _run(f"""
import sys, types
pkg = types.ModuleType("mubasis")
pkg.__path__ = [{str(ROOT / "src" / "mubasis")!r}]
sys.modules["mubasis"] = pkg
from mubasis.arith import VARS_ST, Poly, gcd_many
s = Poly.variable(VARS_ST, "s")
assert gcd_many([s * s - 1, s * s + 2 * s + 1]) == s + 1
print(sorted(m for m in sys.modules if m.startswith("mubasis")))
""")
    assert loaded == "['mubasis', 'mubasis.arith', 'mubasis.errors']", loaded


def test_compute_loads_no_test_only_package():
    loaded = _run("""
import contextlib, io, sys
from mubasis.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["compute", "(s^2, t^2, s^2-1, s^2+1)", "--json"]) == 0
print(sorted({m.split(".")[0] for m in sys.modules} & {"sympy", "hypothesis", "numpy"}))
""")
    assert loaded == "[]", loaded


def test_readme_exported_names_exist():
    # the paragraph lists the exported lower-level pieces; a deleted or
    # renamed export must leave it too
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("Lower-level pieces are exported")
    paragraph = text[start:text.index("\n\n", start)]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 20, names
    assert [n for n in names if not hasattr(mubasis, n)] == []


def test_no_source_line_is_longer_than_100_characters():
    long = [f"{path.relative_to(ROOT)}:{n}" for path in sorted((ROOT / "src").rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []
