"""Span arithmetic and the tracer's handling of the program's names."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, False]


def test_self_time_subtracts_direct_children():
    spans = [
        _span("run", 0.0, 10.0, -1),
        _span("step", 1.0, 3.0, 0),
        _span("step", 4.0, 8.0, 0),
        _span("solve", 5.0, 6.0, 2),
        _span("matvec", 5.2, 5.4, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 0.8, 0.2])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),
        _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_percentile_interpolates():
    assert tracing.percentile([], 50) == 0.0
    assert tracing.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert tracing.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


def _tiny_run(tf):
    return tf.run_convergence("cn", "spatial", [8, 16], t_end=0.01, fixed_steps=10)


def test_tracer_records_layers_and_restores_the_program():
    import torusflow as tf
    from torusflow import assembly, stepping

    originals = (stepping.cn_step, dict(stepping._STEPPERS), assembly.CyclicTridiagonal.matvec)
    with tracing.Tracer() as tracer:
        _tiny_run(tf)
    assert tracer.missing == set()
    assert (stepping.cn_step, dict(stepping._STEPPERS),
            assembly.CyclicTridiagonal.matvec) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("stepping.step") == 20
    assert names.count("stepping.run") == 2
    assert names.count("cyclic_solver.solve") == 20
    extra = {"result_drift": 0.0, "bytes_written": 0, "overhead": 0.0,
             "raw_wall_s": 1.0, "slowdown": 1.0}
    metrics, left_out = tracing.layer_metrics(tracer, reps=1, steps=20, extra=extra)
    assert left_out == []
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["stepping.steps"]["value"] == 20
    assert metrics["assembly.source_load.per_step"]["value"] == pytest.approx(38 / 20)
    assert metrics["cyclic_solver.non_ok_ratio"]["value"] == 0.0
    assert metrics["diagnostics.records_used_ratio"]["value"] == pytest.approx(16 / 22)


def test_tracer_keeps_going_when_names_disappear(monkeypatch):
    import torusflow as tf
    from torusflow import stepping

    monkeypatch.delattr(stepping, "source_load")  # as if merged into a kernel
    monkeypatch.delattr(stepping, "bdf2_step")
    with tracing.Tracer() as tracer:
        pass
    assert "torusflow.stepping.source_load" in tracer.missing
    assert "torusflow.stepping.bdf2_step" in tracer.missing
    extra = {"result_drift": 0.0, "bytes_written": 0, "overhead": 0.0,
             "raw_wall_s": 1.0, "slowdown": 1.0}
    metrics, left_out = tracing.layer_metrics(tracer, reps=1, steps=1, extra=extra)
    assert set(left_out) == {"assembly.source_load.us_per_call", "assembly.source_load.per_step"}
    assert "stepping.step.us.p50" in metrics
    assert not hasattr(stepping, "source_load")
