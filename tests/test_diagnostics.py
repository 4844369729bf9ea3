import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import torusflow
from torusflow import (
    PeriodicCurve,
    diameter,
    h1_seminorm_error,
    interpolate,
    l2_error,
    manufactured_solution,
    mesh_ratio,
    min_radial,
    rose_curve,
    superconvergence_error,
)
from torusflow import diagnostics
from torusflow.curves import CurveFunction, CurveStack, _circle
from torusflow.diagnostics import ErrorRecord

from oracles import (
    diameter_pairwise,
    h1_error_nodal_roll,
    l2_error_gauss5_roll,
    random_admissible_positions,
    superconvergence_error_roll,
)

EXACT = manufactured_solution()


class TestErrorNorms:
    def test_rejects_unknown_rule(self):
        curve = interpolate(EXACT, 16, 0.0)
        with pytest.raises(ValueError):
            l2_error(curve, EXACT, 0.0, rule="simpson")
        with pytest.raises(ValueError):
            h1_seminorm_error(curve, EXACT, 0.0, rule="simpson")

    def test_interpolant_has_zero_nodal_error(self):
        curve = interpolate(EXACT, 48, 0.3)
        assert l2_error(curve, EXACT, 0.3, rule="nodal") == 0.0
        assert superconvergence_error(curve, EXACT, 0.3) == 0.0
        # the quadrature rule still sees the sagging between the nodes
        assert l2_error(curve, EXACT, 0.3, rule="gauss5") > 0.0

    def test_constant_offset_has_exact_norms(self):
        shift = np.array([0.3, -0.4])
        base = interpolate(EXACT, 32, 0.1)
        moved = PeriodicCurve(base.positions + shift)
        expect = float(np.hypot(*shift))
        assert l2_error(moved, EXACT, 0.1, rule="nodal") == pytest.approx(expect, rel=1e-14)
        assert superconvergence_error(moved, EXACT, 0.1) == pytest.approx(expect, rel=1e-14)
        # derivative-based seminorms cannot see a translation
        for rule in ("nodal", "gauss5"):
            assert h1_seminorm_error(moved, EXACT, 0.1, rule=rule) == pytest.approx(
                h1_seminorm_error(base, EXACT, 0.1, rule=rule), rel=1e-12
            )

    def test_single_node_displacement_closed_form(self):
        J, delta = 20, 0.05
        h = 1.0 / J
        pos = interpolate(EXACT, J, 0.0).positions.copy()
        pos[0, 1] += delta
        moved = PeriodicCurve(pos)
        assert l2_error(moved, EXACT, 0.0, rule="nodal") == pytest.approx(
            delta * np.sqrt(h), rel=1e-13
        )
        expect = np.sqrt(2.0 * h * delta**2 / 3.0 + 2.0 * delta**2 / h)
        assert superconvergence_error(moved, EXACT, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_interpolation_error_rates(self):
        # piecewise linear approximation of a smooth curve: second order
        # in L2, first order in the derivative seminorm
        l2 = {J: l2_error(interpolate(EXACT, J, 0.2), EXACT, 0.2, rule="gauss5") for J in (32, 64)}
        h1 = {J: h1_seminorm_error(interpolate(EXACT, J, 0.2), EXACT, 0.2, rule="gauss5") for J in (32, 64)}
        assert l2[32] / l2[64] == pytest.approx(4.0, rel=0.05)
        assert h1[32] / h1[64] == pytest.approx(2.0, rel=0.05)

    def test_nodal_seminorm_of_circle_interpolant(self):
        # endpoint sampling of the derivative gap on the unit circle
        # gives 2 pi^2 h up to higher order corrections
        for J in (64, 128):
            err = h1_seminorm_error(interpolate(EXACT, J, 0.0), EXACT, 0.0, rule="nodal")
            assert err == pytest.approx(2.0 * np.pi**2 / J, rel=5e-3)


class TestNormsBySlicing:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 200), t=st.floats(0.0, 1.0))
    def test_equal_to_the_roll_formulas(self, seed, J, t):
        # the norms take each element's left endpoint by slicing; the
        # numbers are those of the np.roll formulas, bit for bit
        rng = np.random.default_rng(seed)
        pos = interpolate(EXACT, J, t).positions + 0.1 * rng.normal(size=(J, 2))
        curve = PeriodicCurve(pos)
        assert l2_error(curve, EXACT, t, rule="gauss5") == l2_error_gauss5_roll(pos, EXACT, t)
        assert h1_seminorm_error(curve, EXACT, t, rule="nodal") == h1_error_nodal_roll(pos, EXACT, t)
        assert superconvergence_error(curve, EXACT, t) == superconvergence_error_roll(pos, EXACT, t)


class TestCachedCircleSamples:
    """A circle's exact samples come from a per-grid cos/sin table; the
    norms equal those of the same circle evaluated point by point."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        base=st.floats(1.5, 20.0),
        swing=st.floats(0.0, 1.0),
        pace=st.floats(-5.0, 5.0),
        radius=st.floats(0.05, 1.4),
        J=st.integers(3, 200),
        t=st.floats(0.0, 2.0),
    )
    def test_norms_equal_the_evaluated_circle(self, seed, base, swing, pace, radius, J, t):
        circle = _circle(lambda time: base + swing * math.sin(pace * time), radius)
        plain = CurveFunction(circle.value, circle.derivative)
        rng = np.random.default_rng(seed)
        pos = interpolate(plain, J, t).positions + 0.05 * radius * rng.normal(size=(J, 2))
        curve = PeriodicCurve(pos)
        hits = diagnostics._trig.cache_info().hits
        for rule in ("nodal", "gauss5"):
            assert l2_error(curve, circle, t, rule=rule) == l2_error(curve, plain, t, rule=rule)
            assert h1_seminorm_error(curve, circle, t, rule=rule) == h1_seminorm_error(
                curve, plain, t, rule=rule
            )
        assert superconvergence_error(curve, circle, t) == superconvergence_error(curve, plain, t)
        # every lookup after the first of each rule hits the cache
        assert diagnostics._trig.cache_info().hits >= hits + 3

    def test_tables_are_read_only_and_the_cache_is_bounded(self):
        keys = [(J, rule) for J in range(3, 40) for rule in ("nodal", "gauss5")]
        for key in keys:
            table = diagnostics._trig(*key)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        info = diagnostics._trig.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < len(keys)


class TestMeshMetrics:
    def test_mesh_ratio_and_min_radius_of_triangle(self):
        tri = PeriodicCurve(np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 3.0]]))
        assert mesh_ratio(tri) == pytest.approx(np.sqrt(10.0), rel=1e-14)
        assert min_radial(tri) == 1.0

    def test_uniform_polygon_has_unit_ratio(self):
        diamond = PeriodicCurve(np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))
        assert mesh_ratio(diamond) == 1.0

    def test_stack_gives_one_value_per_member(self, rng):
        curves = [PeriodicCurve(random_admissible_positions(rng, 12)) for _ in range(3)]
        stack = CurveStack(np.stack([c.positions for c in curves]))
        assert mesh_ratio(stack) == [mesh_ratio(c) for c in curves]
        assert min_radial(stack) == [min_radial(c) for c in curves]

    def test_zero_edge_gives_infinite_ratio(self):
        pinched = PeriodicCurve(np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]]))
        assert mesh_ratio(pinched) == np.inf


class TestDiameter:
    def test_diamond(self):
        diamond = PeriodicCurve(np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))
        assert diameter(diamond) == pytest.approx(2.0, rel=1e-14)

    def test_circle_nodes_reach_antipodes(self):
        curve = interpolate(EXACT, 64, 0.25)
        assert diameter(curve) == pytest.approx(2.0, rel=1e-14)

    def test_rigid_motions_preserve_diameter(self, rng):
        pos = np.column_stack([rng.uniform(1, 3, 40), rng.uniform(-1, 1, 40)])
        base = PeriodicCurve(pos)
        ang = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = PeriodicCurve(pos @ rot.T + np.array([5.0, -2.0]))
        assert diameter(moved) == pytest.approx(diameter(base), rel=1e-12)

    def test_calipers_path_matches_pairwise(self):
        # every node of a circle is a hull vertex
        J = 1500
        curve = interpolate(EXACT, J, 0.0)
        assert diameter(curve) == pytest.approx(diameter_pairwise(curve.positions), rel=1e-13)

    def test_small_hull_path_matches_pairwise(self, rng):
        J = 1224
        pos = np.column_stack([rng.uniform(1, 4, J), rng.uniform(-2, 2, J)])
        curve = PeriodicCurve(pos)
        assert diameter(curve) == pytest.approx(diameter_pairwise(pos), rel=1e-13)

    def test_collinear_nodes_fall_back_to_extremes(self):
        J = 1030
        frac = np.arange(J) / J
        s = 1.0 - np.abs(1.0 - 2.0 * frac)
        pos = np.column_stack([1.0 + s, 2.0 + 2.0 * s])
        curve = PeriodicCurve(pos)
        assert diameter(curve) == pytest.approx(diameter_pairwise(pos), rel=1e-13)

    def test_star_polygon_is_not_its_own_hull(self):
        # a pentagram turns left at every node but winds twice
        ang = 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5
        pos = np.column_stack([2.0 + np.cos(ang), 0.3 * np.sin(ang)])
        for nodes in (pos, pos[::-1]):
            assert diameter(PeriodicCurve(nodes)) == pytest.approx(diameter_pairwise(nodes), rel=1e-13)

    def test_nonconvex_polygon_gets_its_hull_diameter(self):
        # the rose's petals turn both ways, so its hull comes from Qhull
        from scipy import spatial

        curve = interpolate(rose_curve(), 96)
        with mock.patch.object(spatial, "ConvexHull", wraps=spatial.ConvexHull) as hull:
            found = diameter(curve)
        assert hull.call_count == 1
        assert found == pytest.approx(diameter_pairwise(curve.positions), rel=1e-13)

    def test_import_leaves_qhull_unloaded(self):
        # scipy.spatial is imported by the first diameter that needs a hull
        src = str(Path(torusflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, torusflow, torusflow.cli; print('scipy.spatial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


def _matches_pairwise(pos):
    assert diameter(PeriodicCurve(pos)) == pytest.approx(diameter_pairwise(pos), rel=1e-13)


class TestDiameterProperties:
    """The hull routine against the pairwise scan on arbitrary node sets."""

    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.integers(3, 300).flatmap(
            lambda n: arrays(float, (n, 2), elements=st.floats(-10.0, 10.0))
        ),
        decimals=st.sampled_from([None, 0, 1, 2]),
    )
    def test_random_and_rounded_sets(self, pos, decimals):
        # rounding to a few decimals makes duplicates and collinear runs
        if decimals is not None:
            pos = np.round(pos, decimals)
        _matches_pairwise(pos)

    @settings(max_examples=100, deadline=None)
    @given(
        t=arrays(float, st.integers(3, 300), elements=st.floats(-5.0, 5.0)),
        origin=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        direction=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -2.0), (3.0, 0.5)]),
    )
    def test_collinear_sets(self, t, origin, direction):
        _matches_pairwise(np.array(origin) + t[:, None] * np.array(direction))

    @settings(max_examples=200, deadline=None)
    @given(
        par=arrays(float, st.integers(3, 300), elements=st.floats(0.0, 2.0 * np.pi), unique=True),
        axes=st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0)),
        tilt=st.floats(0.0, np.pi),
        clockwise=st.booleans(),
        decimals=st.sampled_from([None, 1, 3]),
    )
    def test_convex_polygons_either_orientation(self, par, axes, tilt, clockwise, decimals):
        # nodes in order along an ellipse form a convex polygon, which is
        # its own hull unless rounding makes it degenerate
        par = np.sort(par)[::-1] if clockwise else np.sort(par)
        c, s = np.cos(tilt), np.sin(tilt)
        pos = np.column_stack([axes[0] * np.cos(par), axes[1] * np.sin(par)]) @ np.array([[c, -s], [s, c]])
        if decimals is not None:
            pos = np.round(pos, decimals)
        _matches_pairwise(pos)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 300),
        scale=st.floats(1e-4, 1.0),
        center=st.tuples(st.floats(0.0, 3.0), st.floats(-1.0, 1.0)),
        phase=st.floats(0.0, 2.0 * np.pi),
    )
    def test_shrinking_circles(self, n, scale, center, phase):
        # a collapsing curve ends as a tiny near-circle
        ang = phase + 2.0 * np.pi * np.arange(n) / n
        _matches_pairwise(np.array(center) + scale * np.column_stack([np.cos(ang), np.sin(ang)]))


class TestErrorRecord:
    def test_untracked_fields_default_to_nan(self):
        rec = ErrorRecord(step=3, time=0.1)
        assert rec.step == 3 and rec.time == 0.1
        for value in (rec.err_l2, rec.err_h1, rec.superconv_h1, rec.mesh_ratio, rec.min_radius, rec.diameter):
            assert np.isnan(value)
