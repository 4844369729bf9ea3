import re

import numpy as np
import pytest

from torusflow import (
    PeriodicCurve,
    RunReport,
    SchemeKind,
    StopKind,
    bisect_critical_radius,
    classify_radius,
    interpolate,
    run_convergence,
    run_scenario,
    scenario_curve,
)
from torusflow import experiments
from torusflow.experiments import CHECKPOINT_COUNT, _checkpoint_steps
from torusflow.stepping import StopEvent

from oracles import polygon_winding

COARSE = dict(node_count=64, dt=5e-4)


class TestCheckpointSteps:
    def test_short_runs_keep_every_step(self):
        for steps in (1, 2, 3, 5, 8):
            assert _checkpoint_steps(steps) == list(range(1, steps + 1))

    def test_long_runs_sample_evenly(self):
        assert _checkpoint_steps(32) == [4, 8, 12, 16, 20, 24, 28, 32]
        assert _checkpoint_steps(10000) == [1250 * k for k in range(1, 9)]

    def test_result_is_sorted_within_range_and_hits_the_end(self):
        for steps in (7, 12, 100, 12345):
            picked = _checkpoint_steps(steps)
            assert picked == sorted(set(picked))
            assert picked[0] >= 1 and picked[-1] == steps
            assert len(picked) <= CHECKPOINT_COUNT


class TestRunConvergence:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_convergence("cn", "sideways", [8, 16])
        with pytest.raises(ValueError):
            run_convergence("cn", "spatial", [])
        with pytest.raises(ValueError):
            run_convergence("cn", "spatial", [16, 8])
        with pytest.raises(ValueError):
            run_convergence("cn", "spatial", [2, 4])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(fixed_steps=0), "fixed_steps must be an integer of at least 1, got 0"),
            (dict(fixed_steps=-3), "fixed_steps must be an integer of at least 1, got -3"),
            (dict(fixed_steps=2.5), "fixed_steps must be an integer of at least 1, got 2.5"),
            (dict(fixed_nodes=2), "fixed_nodes must be an integer of at least 3, got 2"),
            (dict(t_end=0.0), "t_end must be positive and finite, got 0.0"),
            (dict(t_end=float("nan")), "t_end must be positive and finite, got nan"),
        ],
    )
    def test_rejects_bad_sizes_by_name(self, monkeypatch, kwargs, message):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_convergence("cn", "spatial", [8, 16], **kwargs)

    def test_spatial_smoke_ladder(self):
        study = run_convergence("bdf2", "spatial", [8, 16, 32], t_end=0.2, fixed_steps=400)
        assert study.axis == "spatial"
        assert study.scheme is SchemeKind.BDF2
        assert [row.resolution for row in study.rows] == [8, 16, 32]
        assert study.rows[0].order_l2 is None and study.rows[0].order_h1 is None
        for row in study.rows[1:]:
            assert 1.9 <= row.order_l2 <= 2.1
            assert 0.9 <= row.order_h1 <= 1.1
        # distance to the interpolant shrinks at second order as well
        assert len(study.superconv_h1) == 3
        assert study.superconv_h1[0] / study.superconv_h1[2] >= 12.0

    def test_temporal_smoke_ladder(self):
        study = run_convergence("cn", "temporal", [4, 8, 16], t_end=0.2, fixed_nodes=256)
        for row in study.rows[1:]:
            assert 1.7 <= row.order_l2 <= 2.2
        # the derivative seminorm bottoms out at the fixed-grid floor
        floor = 2.0 * np.pi**2 / 256
        assert study.rows[-1].err_h1 == pytest.approx(floor, rel=0.05)

    def test_early_stop_invalidates_table(self, monkeypatch):
        import torusflow.experiments as experiments

        curve = interpolate(scenario_curve("torus:0.5"), 8)

        def broken_run(*args, **kwargs):
            return RunReport(
                scheme=SchemeKind.CN,
                node_count=8,
                dt=0.1,
                t_end=1.0,
                event=StopEvent(StopKind.AXIS_TOUCH, 0.3, 5e-4),
                final=curve,
                records=[],
            )

        monkeypatch.setattr(experiments, "run", broken_run)
        with pytest.raises(RuntimeError, match="stopped early"):
            run_convergence("cn", "spatial", [8, 16])


class TestClassifyRadius:
    def test_thin_donut_touches_axis(self):
        event = classify_radius(0.7, "bdf1", **COARSE)
        assert event.kind is StopKind.AXIS_TOUCH
        assert 0.05 <= event.time <= 0.12

    def test_fat_donut_collapses(self):
        event = classify_radius(0.5, "bdf1", **COARSE)
        assert event.kind is StopKind.CURVE_COLLAPSE
        assert 0.12 <= event.time <= 0.16

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(dt=float("nan")), "dt"),
            (dict(dt=0.0), "dt"),
            (dict(t_max=float("nan")), "t_max"),
            (dict(t_max=-1.0), "t_max"),
            (dict(t_max=float("inf")), "t_max"),
        ],
    )
    def test_rejects_bad_step_inputs_by_name(self, monkeypatch, kwargs, name):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            classify_radius(0.6, "cn", **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            bisect_critical_radius(0.5, 0.7, 0.01, "cn", **kwargs)

    def test_undecided_run_raises(self):
        with pytest.raises(RuntimeError, match="without a singularity"):
            classify_radius(0.5, "bdf1", t_max=0.01, **COARSE)


class TestBisection:
    def test_rejects_bad_brackets(self):
        with pytest.raises(ValueError):
            bisect_critical_radius(0.7, 0.5, 0.01, "cn")
        with pytest.raises(ValueError):
            bisect_critical_radius(0.0, 0.7, 0.01, "cn")
        with pytest.raises(ValueError):
            bisect_critical_radius(0.5, 1.0, 0.01, "cn")
        with pytest.raises(ValueError):
            bisect_critical_radius(0.5, 0.7, 0.0, "cn")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.01])
    def test_rejects_bad_tol_by_name(self, tol):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            bisect_critical_radius(0.5, 0.7, tol, "cn")

    def test_rejects_misclassified_endpoints(self):
        with pytest.raises(ValueError, match="does not collapse"):
            bisect_critical_radius(0.68, 0.9, 0.05, "bdf1", **COARSE)
        with pytest.raises(ValueError, match="does not touch the axis"):
            bisect_critical_radius(0.3, 0.55, 0.05, "bdf1", **COARSE)

    def test_coarse_bracket_shrinks_consistently(self):
        result = bisect_critical_radius(0.5, 0.7, 0.05, "bdf1", **COARSE)
        assert result.upper - result.lower <= 0.05 + 1e-12
        assert 0.5 <= result.lower < result.upper <= 0.7
        # the endpoints are classified first, midpoints afterwards
        assert result.probes[0][0] == 0.5
        assert result.probes[0][1].kind is StopKind.CURVE_COLLAPSE
        assert result.probes[1][0] == 0.7
        assert result.probes[1][1].kind is StopKind.AXIS_TOUCH
        touches = [r for r, e in result.probes if e.kind is StopKind.AXIS_TOUCH]
        collapses = [r for r, e in result.probes if e.kind is StopKind.CURVE_COLLAPSE]
        assert result.upper == min(touches)
        assert result.lower == max(collapses)


class TestScenarioCurves:
    def test_torus_label(self):
        f = scenario_curve("torus:0.7")
        assert f(np.array([0.0]))[0] == pytest.approx([1.7, 0.0])
        with pytest.raises(ValueError):
            scenario_curve("torus")

    def test_plain_labels(self):
        assert scenario_curve("ellipse")(np.array([0.0]))[0] == pytest.approx([6.0, 0.0])
        assert scenario_curve("rose")(np.array([0.0]))[0] == pytest.approx([13.0, 0.0])
        for bad in ("ellipse:2", "rose:1", "banana"):
            with pytest.raises(ValueError):
                scenario_curve(bad)

    def test_spiral_layers(self):
        pts = scenario_curve("spiral:3")(np.linspace(0, 1, 4096, endpoint=False))
        assert polygon_winding(pts, about=np.array([3.0, 0.0])) == 7

    @pytest.mark.parametrize("name, param", [("spiral:x", "layers"), ("torus:abc", "radius")])
    def test_bad_parameters_are_named(self, name, param):
        with pytest.raises(ValueError, match=f"^scenario '{name}': {param} is not a valid "):
            scenario_curve(name)


class TestRunScenario:
    def test_snapshots_land_on_nearest_grid_times(self):
        result = run_scenario(
            "torus:0.6", "cn", 32, 1e-3, 0.05, snapshot_times=(0.0, 0.02, 0.021, 0.05, 0.2)
        )
        assert result.report.event.kind is StopKind.REACHED_T
        # the 0.2 request clamps onto the final step, already claimed by 0.05
        assert [s.step for s in result.snapshots] == [0, 20, 21, 50]
        assert [s.requested_time for s in result.snapshots] == [0.0, 0.02, 0.021, 0.05]
        for snap in result.snapshots:
            assert snap.time == pytest.approx(snap.step * 1e-3)
            assert snap.curve.node_count == 32

    def test_rejects_nonfinite_step_inputs_by_name(self):
        for dt, t_end, name in [(float("nan"), 0.01, "dt"), (float("inf"), 0.01, "dt"),
                                (1e-3, float("nan"), "t_end"), (1e-3, float("inf"), "t_end")]:
            with pytest.raises(ValueError, match=f"^{name} must be "):
                run_scenario("torus:0.6", "cn", 16, dt, t_end, snapshot_times=(0.0,))

    @pytest.mark.parametrize("t_snap", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_snapshot_times_by_name(self, t_snap):
        with pytest.raises(ValueError, match="^snapshot_times must be finite"):
            run_scenario("torus:0.6", "cn", 16, 1e-3, 0.01, snapshot_times=(0.0, t_snap))

    def test_huge_snapshot_time_clamps_to_the_end(self):
        result = run_scenario("torus:0.6", "cn", 16, 1e-3, 0.01, snapshot_times=(1e308,))
        assert [s.step for s in result.snapshots] == [10]

    def test_early_event_truncates_snapshots(self):
        result = run_scenario(
            "torus:0.7", "bdf1", 64, 5e-4, 0.3, snapshot_times=(0.05, 0.25)
        )
        assert result.report.event.kind is StopKind.AXIS_TOUCH
        assert [s.requested_time for s in result.snapshots] == [0.05]
