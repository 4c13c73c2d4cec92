"""Benchmark of the mubasis pipeline, in-process and single-threaded.

    python3 perfbench/run.py --workload full_d2 --seed 1 --seconds 35 --trace 0

Each input is one call ``mubasis.cli.run(command, parse_parametrization(
text, seed))`` on a tuple text from ``corpus.py``.  The run cycles through
the corpus until ``--seconds`` have passed and at least two full passes are
done, so that every input has a repeat.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced and traced passes in turn
and reports the per-layer metrics.  Outputs are checked after the timed
window: every repeat of an input must give byte-identical ``--json`` bytes,
every basis must pass ``verify_mu_basis`` again and every bounds verdict
must hold.  The last stdout line is one JSON object; the exit code is 1 when
a check failed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

# Wall-clock limit of one input; a longer input counts as failed.
INPUT_DEADLINE_S = 30.0
# No input starts after this many seconds of measuring; inputs not reached
# count as failed, so that a run ends well within three minutes.
RUN_CAP_S = 120.0
# Set-up (import, corpus, warm-up) runs this often; its median is reported.
SETUP_REPEATS = 5

END_TO_END = {
    "inputs_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

_SPAN_NAMES = [name for _, _, name in tracing.TARGETS + tracing.CALL_SITES]
PER_LAYER = {
    **{f"{n}_s": ("s", "lower") for n in _SPAN_NAMES},
    **{f"{n}_calls": ("count", "lower") for n in _SPAN_NAMES},
    "pipeline.compute_mu_basis_self_s": ("s", "lower"),
    "quillen_suslin.deg_M_sum": ("deg", "lower"),
    "quillen_suslin.deg_M_max": ("deg", "lower"),
    "arith.mat_inverse_max_n": ("rows", "lower"),
    "pipeline.degree_sum_total": ("deg", "lower"),
    "pipeline.pd2_frac": ("ratio", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


# Host speed.  Other load on a shared host changes the speed of the process
# by up to 1.7x, in states that last seconds.  A fixed Fraction-and-dict
# computation, independent of the library, is timed before and after every
# input and, from a SIGPROF handler, every SAMPLE_PERIOD_S of CPU time while
# the input runs.  Each attempt's time is scaled by CALIBRATION_NOMINAL_S /
# (median of the samples around and during it): seconds at a fixed host
# speed, the typical fast state of a 2-CPU VM.  See README.md.
SAMPLE_PERIOD_S = 0.05
CALIBRATION_NOMINAL_S = 0.0005
# A short attempt has few samples of its own; its scale then also uses the
# samples just before it, up to this many in all (about one second).
MIN_SAMPLES = 21


def _calibration_work():
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _sample() -> float:
    t0 = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples of one run; a context manager that samples on
    SIGPROF while it is entered."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(_sample())

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def mark(self) -> int:
        """Take one sample now; returns its index."""
        self.samples.append(_sample())
        return len(self.samples) - 1

    def scale(self, start=0, end=None) -> float:
        """Factor from measured seconds to seconds at nominal host speed, over
        the samples with index start..end (all by default), widened back to
        MIN_SAMPLES samples."""
        end = len(self.samples) - 1 if end is None else end
        start = max(0, min(start, end + 1 - MIN_SAMPLES))
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples[start:end + 1])


class InputTimeout(BaseException):
    """Raised by the per-input alarm; a BaseException so no handler in the
    library that catches Exception can swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


@dataclass
class Attempt:
    key: str
    seconds: float
    doc: dict | None  # None on timeout or exception
    status: str  # "ok", "timeout", "not reached", "exit <code>" or "exception <type>"
    scale: float = 1.0  # HostSpeed.scale over this attempt


def import_library():
    """Fresh import of ``mubasis`` from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mubasis" or n.startswith("mubasis.")]:
        del sys.modules[name]
    cli = importlib.import_module("mubasis.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mubasis imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Import, corpus generation and one warm-up input; returns (cli, items, s)."""
    t0 = time.perf_counter()
    cli = import_library()
    items = corpus.build(workload, seed)
    command = corpus.WORKLOADS[workload]["command"]
    doc, code, _ = cli.run(command, cli.parse_parametrization(corpus.WARMUP_TEXT))
    if code != 0:
        raise RuntimeError(f"warm-up input failed: {doc.get('error')}")
    return cli, items, time.perf_counter() - t0


def attempt(cli, command: str, item, deadline: float, speed: HostSpeed) -> Attempt:
    """One timed input under a wall-clock deadline.

    It starts on a freshly collected heap, as in a fresh process, so that
    garbage of the previous input is not collected on this one's time."""
    gc.collect()
    first = speed.mark()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    try:
        doc, code, _ = cli.run(command, cli.parse_parametrization(item.text, seed=item.seed))
        status = "ok" if code == 0 else f"exit {code}"
    except InputTimeout:
        doc, status = None, "timeout"
    except Exception as exc:  # a traceback escaping the library is a failure
        doc, status = None, f"exception {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    return Attempt(item.key, seconds, doc, status, speed.scale(first, speed.mark()))


def run_pass(cli, command, items, deadline, speed, attempts, tracer=None, label=""):
    t0 = time.perf_counter()
    for item in items:
        if tracer is None:
            attempts.append(attempt(cli, command, item, deadline, speed))
        else:
            with tracer.input(f"{item.key}{label}"):
                attempts.append(attempt(cli, command, item, deadline, speed))
    return time.perf_counter() - t0


def measure(cli, command, items, seconds, speed, deadline=INPUT_DEADLINE_S):
    """Untraced: cycle through the corpus for ``seconds``, at least two passes."""
    attempts = []
    t0 = time.perf_counter()
    k = 0
    while k < 2 * len(items) or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - t0 >= RUN_CAP_S:
            # Inputs never attempted (only in a first pass) stay in the results.
            attempts += [Attempt(it.key, deadline, None, "not reached")
                         for it in items[k:]]
            break
        attempts.append(attempt(cli, command, items[k % len(items)], deadline, speed))
        k += 1
    return attempts


def measure_traced(cli, command, items, seconds, speed, tracer,
                   deadline=INPUT_DEADLINE_S):
    """Untraced and traced full passes in turn: one pair, then more while
    another pair still fits in ``seconds``; returns (attempts, untraced pass
    walls, traced pass walls)."""
    attempts, plain, traced = [], [], []
    t0 = time.perf_counter()
    while not traced or (time.perf_counter() - t0) * (1 + 1 / len(traced)) <= min(
            seconds, RUN_CAP_S):
        plain.append(run_pass(cli, command, items, deadline, speed, attempts))
        handle = tracing.install(tracer)
        try:
            traced.append(run_pass(cli, command, items, deadline, speed, attempts,
                                   tracer, f"#{len(traced)}"))
        finally:
            handle.restore()
    return attempts, plain, traced


def _vector_degree(vec) -> int:
    return max((int(p.degree) for p in vec if not p.is_zero()), default=0)


def check_doc(command: str, text: str, doc: dict) -> str | None:
    """Independent re-check of one output document; returns a reason or None."""
    from mubasis.errors import VerificationError
    from mubasis.parser import parse_polynomial, parse_tuple
    from mubasis.pipeline import validate, verify_mu_basis

    if not doc.get("bounds", {}).get("all_passed"):
        return "a bounds verdict failed"
    if command != "compute":
        return None
    par = validate(parse_tuple(text))
    basis = [tuple(parse_polynomial(c) for c in vec) for vec in doc["basis"]]
    try:
        alpha = verify_mu_basis(basis, par)
    except VerificationError as exc:
        return f"basis fails verification: {exc}"
    if str(alpha) != doc["alpha"]:
        return f"alpha {doc['alpha']} differs from the verified {alpha}"
    degrees = [_vector_degree(v) for v in basis]
    if degrees != doc["degrees"] or sum(degrees) != doc["degree_sum"]:
        return "basis degrees differ from the reported ones"
    return None


def check(command: str, items, attempts):
    """Returns (failed attempts, wrong attempts, reasons, first doc per key).

    Timeouts and inputs not reached are failed; error exits, exceptions,
    non-identical repeats and outputs failing the re-check are failed and
    wrong."""
    text = {it.key: it.text for it in items}
    failed = wrong = 0
    reasons = []
    reference, verdict = {}, {}
    for a in attempts:
        if a.status in ("timeout", "not reached"):
            failed += 1
            continue
        if a.status != "ok":
            reason = a.status
        else:
            dump = json.dumps(a.doc, sort_keys=True, indent=2)
            if a.key not in reference:
                reference[a.key] = (dump, a.doc)
                try:
                    verdict[a.key] = check_doc(command, text[a.key], a.doc)
                except Exception as exc:  # e.g. an unparsable basis entry
                    verdict[a.key] = f"check raised {type(exc).__name__}: {exc}"
            reason = verdict[a.key]
            if dump != reference[a.key][0]:
                reason = "repeat gave different --json bytes"
        if reason is not None:
            failed += 1
            wrong += 1
            reasons.append(f"{a.key}: {reason}")
    return failed, wrong, reasons, {k: doc for k, (_, doc) in reference.items()}


def per_input_latency(attempts, deadline, scaled=True):
    """Latency of each input: the median over its repeats, each scaled to
    nominal host speed unless ``scaled`` is false.  An input with a failed
    attempt counts at the deadline, the latency limit it missed."""
    times, failed = {}, set()
    for a in attempts:
        times.setdefault(a.key, [])
        if a.status == "ok":
            times[a.key].append(a.seconds * (a.scale if scaled else 1.0))
        else:
            failed.add(a.key)
    return {k: deadline if k in failed else statistics.median(v) for k, v in times.items()}


def end_to_end(attempts, setups, rss_mb, scaled=True, deadline=INPUT_DEADLINE_S):
    values = sorted(per_input_latency(attempts, deadline, scaled).values())
    done = {a.key for a in attempts if a.status == "ok"}
    return {
        "inputs_per_s": len(done) / sum(values),
        "latency_p50_s": statistics.median(values),
        "latency_p90_s": statistics.quantiles(values, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(s * (k if scaled else 1.0) for s, k in setups),
    }


def per_layer(tracer, plain, traced, docs, scale):
    totals = tracing.layer_totals(tracer)
    passes = len(traced)
    out = {}
    for name in _SPAN_NAMES:
        row = totals.get(name, {"s": 0.0, "calls": 0})
        out[f"{name}_s"] = row["s"] * scale / passes
        out[f"{name}_calls"] = row["calls"] / passes
    pipe = totals.get("pipeline.compute_mu_basis", {"self_s": 0.0})
    out["pipeline.compute_mu_basis_self_s"] = pipe["self_s"] * scale / passes
    degs = [a["deg_M"] for a in totals.get("quillen_suslin.complete_columns",
                                           {"attrs": []})["attrs"]]
    out["quillen_suslin.deg_M_sum"] = sum(degs) / passes
    out["quillen_suslin.deg_M_max"] = max(degs, default=0)
    sizes = [a["n"] for a in totals.get("arith.mat_inverse", {"attrs": []})["attrs"]]
    out["arith.mat_inverse_max_n"] = max(sizes, default=0)
    out.update(output_totals(docs))
    out["trace_overhead_frac"] = statistics.mean(traced) / statistics.mean(plain) - 1
    return out


def output_totals(docs):
    """Basis degree sum and pd2 share over the distinct inputs that finished."""
    bases = [d for d in docs.values() if "degree_sum" in d]
    return {
        "pipeline.degree_sum_total": sum(d["degree_sum"] for d in bases),
        "pipeline.pd2_frac": (sum(d["branch"] == "pd2" for d in bases) / len(bases)
                              if bases else 0.0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mubasis" / "__init__.py").is_file():
        print(f"error: no mubasis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    command = corpus.WORKLOADS[args.workload]["command"]
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setups = []  # (seconds, host speed scale)
        tracer = tracing.Tracer()
        with HostSpeed() as speed:
            for _ in range(SETUP_REPEATS):
                gc.collect()
                first = speed.mark()
                cli, items, seconds = setup(args.workload, args.seed)
                setups.append((seconds, speed.scale(first, speed.mark())))
            if args.trace:
                attempts, plain, traced = measure_traced(cli, command, items, args.seconds,
                                                         speed, tracer)
            else:
                attempts = measure(cli, command, items, args.seconds, speed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, wrong, reasons, docs = check(command, items, attempts)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)

    scale = speed.scale()
    print(f"host speed scale {scale:.6g} over {len(speed.samples)} calibration samples")
    if args.trace:
        values, table = per_layer(tracer, plain, traced, docs, scale), PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(HERE.parent)}")
    else:
        values, table = end_to_end(attempts, setups, rss_mb), END_TO_END
        for name, value in end_to_end(attempts, setups, rss_mb, scaled=False).items():
            if name != "peak_rss_mb":
                print(f"unscaled {name} {value:.6g}")
        # Not in BENCHMARK.json: failed_frac is usually 0 and degree_sum_total
        # exists for compute only; see README.md.
        print(f"failed_frac {failed / len(attempts):.6g} ratio")
        if command == "compute":
            print(f"degree_sum_total {output_totals(docs)['pipeline.degree_sum_total']} deg")
    print(f"workload {args.workload} seed {args.seed}: {len(items)} inputs, "
          f"{len(attempts)} attempts, latency samples {len(items)} "
          f"(median repeat per input)")
    for reason in reasons:
        print(f"FAILED {reason}")
    metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
