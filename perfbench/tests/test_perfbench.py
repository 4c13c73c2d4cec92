"""Self-tests of the benchmark: corpus, wrappers, metric names, failures.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

import corpus
import run
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_deterministic_per_seed(workload):
    first = corpus.build(workload, 1)
    assert first == corpus.build(workload, 1)
    assert len(first) == corpus.WORKLOADS[workload]["members"]
    other = corpus.build(workload, 2)
    assert {it.text for it in first} != {it.text for it in other}
    assert sorted(it.key for it in first) == sorted(it.key for it in other)


def test_corpus_members_follow_their_recipe():
    from mubasis.parser import parse_tuple
    from mubasis.pipeline import validate

    for workload, d in (("full_d2", 2), ("bounds_d3", 3)):
        for item in corpus.build(workload, 5):
            polys = parse_tuple(item.text)
            assert all(int(p.degree) == d for p in polys)
            assert validate(polys).d == d
    degrees = {validate(parse_tuple(it.text)).d for it in corpus.build("mixed", 5)}
    assert degrees == {1, 2, 3}


def _snapshot():
    from mubasis.arith import PolyMatrix

    snap = {(m.__name__, k): id(v) for m in tracing._library_modules()
            for k, v in vars(m).items()}
    snap.update({("PolyMatrix", k): id(v) for k, v in vars(PolyMatrix).items()})
    return snap


def test_wrappers_replace_local_bindings_and_restore_everything():
    import mubasis.bounds
    import mubasis.cli
    import mubasis.pipeline
    from mubasis.grobner import buchberger

    before = _snapshot()
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert mubasis.pipeline.buchberger is not buchberger
        assert mubasis.bounds.buchberger is mubasis.pipeline.buchberger
        assert mubasis.bounds.free_resolution is not mubasis.pipeline.free_resolution
    finally:
        handle.restore()
    assert _snapshot() == before


def test_traced_compute_records_nested_spans_and_certificate_degree():
    from mubasis import cli

    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        with tracer.input("reference"):
            doc, code, _ = cli.run("compute", cli.parse_parametrization(corpus.WARMUP_TEXT))
    finally:
        handle.restore()
    assert code == 0
    totals = tracing.layer_totals(tracer)
    by_id = dict(enumerate(tracer.spans))
    assert totals["cli.run"]["calls"] == 1
    assert totals["bounds.minimal_resolution"]["calls"] == 1
    assert totals["grobner.free_resolution"]["calls"] == 2
    assert [a["deg_M"] for a in totals["quillen_suslin.complete_columns"]["attrs"]] == [
        doc["completion"]["deg_M"]]
    for name, _, _, parent, inp, _, _, _ in tracer.spans:
        assert inp == "reference"
        if name not in ("cli.run", "parser.parse_tuple"):
            assert parent >= 0 and by_id[parent][1] <= by_id[parent][2]
    pipe = totals["pipeline.compute_mu_basis"]
    assert 0 < pipe["self_s"] < pipe["s"]


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for table, key in ((run.END_TO_END, "end_to_end"), (run.PER_LAYER, "per_layer")):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
        for name in table:
            assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_forced_timeout_counts_as_failed_not_dropped(alarm):
    from mubasis import cli

    items = corpus.build("bounds_d3", 1)[:1]
    attempts = run.measure(cli, "bounds", items, 0, run.HostSpeed(), deadline=1e-3)
    assert [a.status for a in attempts] == ["timeout", "timeout"]
    failed, wrong, reasons, docs = run.check("bounds", items, attempts)
    assert (failed, wrong, docs) == (2, 0, {})
    latency = run.per_input_latency(attempts, deadline=7.0)
    assert latency == {items[0].key: 7.0}


def test_check_flags_wrong_and_non_identical_outputs(alarm):
    from mubasis import cli

    item = corpus.Item(key="reference", text=corpus.WARMUP_TEXT, seed=0)
    good = run.attempt(cli, "compute", item, 60, run.HostSpeed())
    assert run.check("compute", [item], [good, good])[:2] == (0, 0)

    tampered = run.Attempt(item.key, good.seconds, dict(good.doc, alpha="7"), "ok")
    failed, wrong, reasons, _ = run.check("compute", [item], [tampered])
    assert (failed, wrong) == (1, 1) and "alpha" in reasons[0]

    differs = run.Attempt(item.key, good.seconds, dict(good.doc, seed=1), "ok")
    failed, wrong, reasons, _ = run.check("compute", [item], [good, differs])
    assert (failed, wrong) == (1, 1) and "different --json bytes" in reasons[0]


def test_host_speed_samples_while_entered_and_scales_attempts(alarm):
    from mubasis import cli

    item = corpus.Item(key="reference", text=corpus.WARMUP_TEXT, seed=0)
    with run.HostSpeed() as speed:
        done = run.attempt(cli, "compute", item, 60, speed)
        busy_until = time.process_time() + 0.3
        while time.process_time() < busy_until:
            pass
    assert len(speed.samples) >= 4  # two marks and SIGPROF samples
    assert signal.getsignal(signal.SIGPROF) in (signal.SIG_DFL, None)
    assert min(speed.samples) <= run.CALIBRATION_NOMINAL_S / done.scale <= max(speed.samples)
    latency = run.per_input_latency([done], deadline=60)
    assert latency == {"reference": pytest.approx(done.seconds * done.scale)}


def test_result_line_is_printed_only_with_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "mixed", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "{" not in capsys.readouterr().out
    assert sys.path[0] != str(tmp_path / "src")
