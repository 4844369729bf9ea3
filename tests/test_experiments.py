import math
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
    run,
    run_convergence,
    run_scenario,
    scenario_curve,
    torus_circle,
)
from torusflow import experiments
from torusflow.experiments import CHECKPOINT_COUNT, _checkpoint_steps
from torusflow.stepping import StopEvent

from oracles import plain_bisection, polygon_winding

COARSE = dict(node_count=64, dt=5e-4)


class TestCheckpointSteps:
    def test_short_runs_keep_every_step(self):
        for steps in (1, 2, 3, 5, 8):
            assert _checkpoint_steps(steps) == list(range(1, steps + 1))

    def test_long_runs_sample_evenly(self):
        assert _checkpoint_steps(32) == [4, 8, 12, 16, 20, 24, 28, 32]
        assert _checkpoint_steps(10000) == [1250 * k for k in range(1, 9)]

    def test_steps_are_rounded_to_the_nearest_checkpoint_time(self):
        # k * 20 / 8 = 7.5 and 17.5 round to even, 8 and 18; truncation
        # would take 7 and 17
        assert _checkpoint_steps(20) == [2, 5, 8, 10, 12, 15, 18, 20]

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
            (dict(fixed_steps=0), "fixed_steps must be at least 1, got 0"),
            (dict(fixed_steps=-3), "fixed_steps must be at least 1, got -3"),
            (dict(fixed_steps=2.5), "fixed_steps must be an integer of at least 1, got 2.5"),
            (dict(fixed_nodes=2), "fixed_nodes must be at least 3, got 2"),
            (dict(t_end=0.0), "t_end must be positive and finite, got 0.0"),
            (dict(t_end=float("nan")), "t_end must be positive and finite, got nan"),
            (dict(levels=[3.7, 4.2]), "levels must be an integer of at least 3, got 3.7"),
            (dict(levels=[8, float("nan")]), "levels must be an integer of at least 3, got nan"),
            (dict(levels=[8, 8]), "levels must be strictly increasing, got [8, 8]"),
            # an integral float is a count: fixed_steps passes and fixed_nodes is named
            (dict(fixed_steps=10000.0, fixed_nodes=2), "fixed_nodes must be at least 3, got 2"),
            # a bool is neither a count nor a time
            (dict(fixed_steps=True), "fixed_steps must be an integer of at least 1, got True"),
            (dict(levels=[8, True]), "levels must be an integer of at least 3, got True"),
            (dict(t_end=True), "t_end must be positive and finite, got True"),
        ],
    )
    def test_rejects_bad_sizes_by_name(self, monkeypatch, kwargs, message):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run", no_run)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_convergence("cn", "spatial", **{"levels": [8, 16], **kwargs})

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
            (dict(node_count=16, dt=1e-300, t_max=1e300), "t_max / dt"),
            (dict(dt=True), "dt"),
            (dict(t_max=True), "t_max"),
        ],
    )
    def test_rejects_bad_step_inputs_by_name(self, monkeypatch, kwargs, name):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run", no_run)
        message = f"^{re.escape(name)} (must be positive and finite, got |overflows: )"
        with pytest.raises(ValueError, match=message):
            classify_radius(0.6, "cn", **kwargs)
        with pytest.raises(ValueError, match=message):
            bisect_critical_radius(0.5, 0.7, 0.01, "cn", **kwargs)

    def test_classifying_without_records_gives_the_events_of_run(self, monkeypatch):
        # the stop events read the curves, not the records, so a stack
        # that keeps none ends each member exactly where run ends it
        kept = []
        real = experiments._run_stack

        def spy(*args, **kwargs):
            reports = real(*args, **kwargs)
            kept.extend(len(report.records) for report in reports)
            return reports

        monkeypatch.setattr(experiments, "_run_stack", spy)
        radii, dt, t_max = [0.5, 0.7], 1e-3, 0.5
        events = experiments._classify(radii, "cn", 32, dt, t_max, None)
        assert kept == [0, 0]
        assert [event.kind for event in events] == [StopKind.CURVE_COLLAPSE, StopKind.AXIS_TOUCH]
        for radius, event in zip(radii, events):
            report = run(torus_circle(radius), "cn", 32, dt, t_max, track_diameter=False)
            assert report.records
            assert (event.kind, event.time, event.metric) == (
                report.event.kind, report.event.time, report.event.metric
            )

    def test_undecided_run_raises(self):
        with pytest.raises(RuntimeError, match="without a singularity"):
            classify_radius(0.5, "bdf1", t_max=0.01, **COARSE)

    def test_undecided_run_names_the_horizon_it_ran_to(self):
        # t_max below one step still runs one step, to t = dt
        with pytest.raises(RuntimeError, match=r"reached t = 0\.0005 without a singularity"):
            classify_radius(0.5, "bdf1", t_max=1e-9, **COARSE)
        # t_max is rounded to a whole number of steps
        with pytest.raises(RuntimeError, match=r"reached t = 0\.0015 without a singularity"):
            classify_radius(0.5, "bdf1", t_max=0.0013, **COARSE)


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

    @pytest.mark.parametrize(
        "tol", [float("nan"), float("inf"), -0.01, pytest.param(10**400, id="huge-int")]
    )
    def test_rejects_bad_tol_by_name(self, tol):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            bisect_critical_radius(0.5, 0.7, tol, "cn")

    def test_rejects_tol_below_the_float_spacing_before_any_run(self, monkeypatch):
        calls = []

        def classify(radii, *args):
            calls.append(list(radii))
            return [
                StopEvent(StopKind.CURVE_COLLAPSE if r < 0.6415 else StopKind.AXIS_TOUCH, 0.1)
                for r in radii
            ]

        monkeypatch.setattr(experiments, "_classify", classify)
        floor = 4.0 * math.ulp(0.7)
        for tol in (1e-300, floor):
            with pytest.raises(ValueError, match="^tol must exceed 4 ulp of upper"):
                bisect_critical_radius(0.5, 0.7, tol, "cn")
        assert not calls
        # just above the floor every midpoint still splits the bracket
        result = bisect_critical_radius(0.5, 0.7, 1.25 * floor, "cn")
        assert calls and 0.0 < result.upper - result.lower <= 1.25 * floor
        assert result.lower < 0.6415 <= result.upper

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


class TestSpeculativeBisection:
    def test_rounds_hold_the_radii_plain_bisection_may_visit_next(self):
        assert experiments.ROUND_DEPTH == 2
        assert experiments._round_radii(0.5, 0.7, 0.01, 2) == [0.6, 0.55, 0.6499999999999999]
        # halves no wider than tol are not bisected again
        assert experiments._round_radii(0.6, 0.61, 0.006, 2) == [0.605]
        assert experiments._round_radii(0.6, 0.61, 0.02, 2) == []

    @pytest.mark.parametrize("scheme", ["cn", "bdf2"])
    def test_same_bracket_and_probes_as_plain_bisection(self, scheme):
        result = bisect_critical_radius(0.5, 0.7, 0.01, scheme, **COARSE)
        lower, upper, probes = plain_bisection(
            0.5, 0.7, 0.01, lambda r: classify_radius(r, scheme, **COARSE)
        )
        assert (result.lower, result.upper) == (lower, upper)
        logged = dict(result.probes)
        assert len(logged) == len(result.probes)
        for radius, event in probes:
            assert logged[radius] == event
        assert [r for r, _ in result.probes[:2]] == [0.5, 0.7]
        # three rounds: the endpoints and 3 radii, 3 radii, the last midpoint
        assert len(result.probes) == 9 and len(probes) == 7

    @staticmethod
    def _stack_ending(odd, kind):
        """A ``_run_stack`` stand-in: torus circles below 0.6415 collapse and
        the others touch the axis at t = 0.1, but radius ``odd`` ends with
        ``kind`` at t_end."""

        def run_stack(initials, scheme, node_count, dt, t_end, **kwargs):
            reports = []
            for initial in initials:
                if initial.radius == odd:
                    event = StopEvent(kind, t_end)
                elif initial.radius < 0.6415:
                    event = StopEvent(StopKind.CURVE_COLLAPSE, 0.1, 1e-4)
                else:
                    event = StopEvent(StopKind.AXIS_TOUCH, 0.1, 1e-4)
                reports.append(RunReport(scheme, node_count, dt, t_end, event, final=None))
            return reports

        return run_stack

    @pytest.mark.parametrize("kind", [StopKind.REACHED_T, StopKind.SOLVER_FAILURE])
    def test_skipped_radius_without_a_singularity_is_left_out(self, monkeypatch, kind):
        # plain bisection of [0.5, 0.7] about 0.6415 goes to 0.6 and then
        # 0.65, so the first round's 0.55 is classified but never visited
        _, skipped, _ = experiments._round_radii(0.5, 0.7, 0.01, 2)
        monkeypatch.setattr(experiments, "_run_stack", self._stack_ending(None, kind))
        every = bisect_critical_radius(0.5, 0.7, 0.01, "cn")
        assert skipped in dict(every.probes)
        monkeypatch.setattr(experiments, "_run_stack", self._stack_ending(skipped, kind))
        result = bisect_critical_radius(0.5, 0.7, 0.01, "cn")
        assert (result.lower, result.upper) == (every.lower, every.upper)
        assert result.probes == [(r, e) for r, e in every.probes if r != skipped]

    @pytest.mark.parametrize("kind", [StopKind.REACHED_T, StopKind.SOLVER_FAILURE])
    @pytest.mark.parametrize("visited", [0.5, 0.7, 0.6])
    def test_visited_radius_without_a_singularity_raises_as_classify_does(
        self, monkeypatch, kind, visited
    ):
        monkeypatch.setattr(experiments, "_run_stack", self._stack_ending(visited, kind))
        with pytest.raises(RuntimeError) as alone:
            classify_radius(visited, "cn")
        assert str(alone.value).startswith(f"radius {visited:g} ")
        with pytest.raises(RuntimeError) as bisected:
            bisect_critical_radius(0.5, 0.7, 0.01, "cn")
        assert str(bisected.value) == str(alone.value)

    def test_bracket_already_within_tol_classifies_only_the_endpoints(self):
        result = bisect_critical_radius(0.6, 0.7, 0.2, "cn", **COARSE)
        assert [r for r, _ in result.probes] == [0.6, 0.7]
        assert (result.lower, result.upper) == (0.6, 0.7)


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
