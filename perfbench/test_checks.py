"""Tests of the benchmark's own checker and tracer, on small shapes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

A corrupted output must raise the fail ratio above 0; the tracer must
subtract overlapping child spans once and survive a function that is gone.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rpsim  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    FluctuationPaths,
    SimulateLong,
    Validate,
    run_operations,
)


def fail_ratio(ops) -> float:
    return sum(not ok for _, ok in ops) / len(ops)


class SmallSimulate(SimulateLong):
    total = 300
    t_end = 2.0
    grid_points = 11


class SmallFluctuation(FluctuationPaths):
    t_end = 0.5
    step = 5e-3
    grid_points = 11


def _pristine(wl, tmp_path, seed=5):
    inputs = wl.prepare(seed, tmp_path)
    result = wl.run(inputs, tmp_path)
    reference = wl.reference(inputs, result, tmp_path)
    golden = {wl.name: {str(seed): reference} if wl.pinned_per_input_set
              else reference}
    assert fail_ratio(run_operations(wl, inputs, result, tmp_path, golden)) == 0
    return inputs, result, golden


def test_flipped_byte_in_events_csv_fails(tmp_path):
    wl = SmallSimulate()
    inputs, result, golden = _pristine(wl, tmp_path)
    events = tmp_path / "ensemble" / "events.csv"
    data = bytearray(events.read_bytes())
    data[len(data) // 2] ^= 1
    events.write_bytes(data)
    assert fail_ratio(run_operations(wl, inputs, result, tmp_path, golden)) > 0


def test_event_log_that_breaks_conservation_fails(tmp_path):
    wl = SmallSimulate()
    inputs, (ens, back), golden = _pristine(wl, tmp_path)
    ens.trajectories[0].event_reactions[:] = 0  # species 1 eats species 2 dry
    ops = run_operations(wl, inputs, (ens, back), tmp_path, golden)
    failed = [name for name, ok in ops if not ok]
    assert "replica 0 event replay" in failed
    assert "replica 0 read back identical" in failed


def test_nudged_covariance_entry_fails(tmp_path):
    wl = SmallFluctuation()
    inputs, (path, states, sde), golden = _pristine(wl, tmp_path)
    states[-1].sigma[0, 1] += 1e-6
    ops = run_operations(wl, inputs, (path, states, sde), tmp_path, golden)
    failed = [name for name, ok in ops if not ok]
    assert "covariance symmetric" in failed
    assert "final covariance matches reference" in failed


def test_failed_or_missing_validate_report_fails(tmp_path):
    wl = Validate()
    reports = tmp_path / "reports"
    reports.mkdir()
    summary = dict.fromkeys(wl.checks, True)
    (reports / "summary.json").write_text(json.dumps(summary))
    assert fail_ratio(run_operations(wl, {}, 0, tmp_path, {})) == 0
    (reports / "summary.json").write_text(json.dumps(dict(summary, lln=False)))
    assert fail_ratio(run_operations(wl, {}, 1, tmp_path, {})) == 0.25
    (reports / "summary.json").unlink()
    assert fail_ratio(run_operations(wl, {}, 1, tmp_path, {})) == 1.0


def _span(id_, name, parent, start, end):
    s = spans.Span(id_, name, parent)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_overlapping_children_once():
    parent = _span(1, "simulate.run_ensemble", None, 0.0, 10.0)
    a = _span(2, "simulate.run_until", 1, 1.0, 9.0)   # thread 1
    b = _span(3, "simulate.run_until", 1, 2.0, 9.5)   # thread 2
    assert spans.self_times([parent, a, b])[1] == 1.5
    m = spans.layer_metrics([parent, a, b], 10.0)
    assert m["simulate.run_until.wall_s"] == 15.5     # summed over threads


def test_traced_job_counts_calls_and_restores_functions(tmp_path, monkeypatch):
    # a target that no longer exists reads zero calls instead of failing
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("simulate.gone", "rpsim.simulate", "no_such_function", None),))
    original = rpsim.simulate.run_ensemble
    wl = SmallSimulate()
    inputs = wl.prepare(5, tmp_path)
    with spans.Tracer() as tracer:
        wl.run(inputs, tmp_path)
    assert rpsim.simulate.run_ensemble is original
    m = spans.layer_metrics(tracer.spans, 1.0)
    assert m["simulate.run_ensemble.calls"] == 1
    assert m["simulate.run_until.calls"] == wl.replicas
    assert m["core.rng_stream.calls"] == wl.replicas
    assert m["simulate.replicas"] == wl.replicas
    assert m["io.rows_read"] == m["io.rows_written"] > 0
    assert m["fluctuation.psd_sqrt.calls"] == 0
    assert 0 < m["tracing_overhead_s"] < 1.0
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "simulate.run_until":
            assert by_id[s.parent].name == "simulate.run_ensemble"
