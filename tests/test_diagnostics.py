import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    run,
    spiral_curve,
    superconvergence_error,
    torus_circle,
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

    @pytest.mark.parametrize("norm", [l2_error, h1_seminorm_error])
    def test_rejects_an_array_rule_by_name(self, norm):
        curve = interpolate(EXACT, 16, 0.0)
        with pytest.raises(ValueError, match="^unknown error rule array"):
            norm(curve, EXACT, 0.0, rule=np.array(["nodal", "gauss5"]))

    def test_interpolant_has_zero_nodal_error(self):
        curve = interpolate(EXACT, 48, 0.3)
        assert l2_error(curve, EXACT, 0.3, rule="nodal") == 0.0
        assert superconvergence_error(curve, EXACT, 0.3) == 0.0
        # the quadrature rule still sees the sagging between the nodes
        assert l2_error(curve, EXACT, 0.3, rule="gauss5") > 0.0

    def test_nodal_gap_is_kept_for_one_time_only(self):
        # the nodal L2 error and the superconvergence distance share the
        # gap kept on the curve; asked at another time, they compute it anew
        curve = interpolate(EXACT, 24, 0.2)
        for t in (0.2, 0.45, 0.2):
            fresh = PeriodicCurve(np.array(curve.positions))
            assert l2_error(curve, EXACT, t, rule="nodal") == l2_error(fresh, EXACT, t, rule="nodal")
            assert superconvergence_error(curve, EXACT, t) == superconvergence_error(fresh, EXACT, t)

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
    """A circle's exact samples come from its per-grid value and
    derivative tables; the norms equal those of the same circle
    evaluated point by point."""

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
        hits = diagnostics._circle_tables.cache_info().hits
        for rule in ("nodal", "gauss5"):
            assert l2_error(curve, circle, t, rule=rule) == l2_error(curve, plain, t, rule=rule)
            assert h1_seminorm_error(curve, circle, t, rule=rule) == h1_seminorm_error(
                curve, plain, t, rule=rule
            )
        assert superconvergence_error(curve, circle, t) == superconvergence_error(curve, plain, t)
        # every lookup after the first of each rule hits the cache
        assert diagnostics._circle_tables.cache_info().hits >= hits + 3

    def test_circles_of_two_radii_on_one_grid_keep_their_own_norms(self):
        curve = interpolate(EXACT, 24, 0.1)
        for radius in (0.5, 0.75, 0.5):
            circle = _circle(lambda time: 2.0 + time, radius)
            plain = CurveFunction(circle.value, circle.derivative)
            for rule in diagnostics.ERROR_RULES:
                assert l2_error(curve, circle, 0.1, rule) == l2_error(curve, plain, 0.1, rule)
                assert h1_seminorm_error(curve, circle, 0.1, rule) == h1_seminorm_error(
                    curve, plain, 0.1, rule
                )
            assert superconvergence_error(curve, circle, 0.1) == superconvergence_error(
                curve, plain, 0.1
            )

    def test_tables_are_read_only_and_the_cache_is_bounded(self):
        keys = [(J, rule, 0.5) for J in range(3, 40) for rule in ("nodal", "gauss5")]
        for key in keys:
            for table in diagnostics._circle_tables(*key):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 0.0
        info = diagnostics._circle_tables.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < len(keys)


class TestMemberViews:
    """A stack member views its row of the stack, strides (8, 8 B J); it
    records what a checked copy of it records, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        B=st.integers(1, 4),
        J=st.integers(3, 200),
        t=st.floats(0.0, 1.0),
    )
    @example(seed=0, B=1, J=3, t=0.0)
    @example(seed=1, B=4, J=200, t=0.5)
    def test_view_records_what_a_checked_copy_records(self, seed, B, J, t):
        rng = np.random.default_rng(seed)
        base = interpolate(EXACT, J, t).positions
        pos = np.stack([base + 0.05 * rng.normal(size=(J, 2)) for _ in range(B)])
        stack = CurveStack._stepped(np.ascontiguousarray(pos.transpose(2, 0, 1)))
        evaluated = CurveFunction(EXACT.value, EXACT.derivative)
        for row in range(B):
            member = stack.member(row)
            copy = PeriodicCurve(np.array(member.positions))
            for exact in EXACT, evaluated:
                for rule in diagnostics.ERROR_RULES:
                    assert l2_error(member, exact, t, rule) == l2_error(copy, exact, t, rule)
                    assert h1_seminorm_error(member, exact, t, rule) == h1_seminorm_error(
                        copy, exact, t, rule
                    )
                assert superconvergence_error(member, exact, t) == superconvergence_error(
                    copy, exact, t
                )
            assert mesh_ratio(member) == mesh_ratio(copy)
            assert min_radial(member) == min_radial(copy)
            assert diameter(member) == diameter(copy)

    def test_view_is_read_only_and_pickles_to_a_checked_copy(self):
        pos = np.stack([interpolate(EXACT, 16, 0.0).positions + 0.1 * k for k in range(3)])
        stack = CurveStack._stepped(np.ascontiguousarray(pos.transpose(2, 0, 1)))
        member = stack.member(1)
        assert np.shares_memory(member.positions, stack._components)
        assert member.positions.strides == (8, 8 * 3 * 16)
        with pytest.raises(ValueError):
            member.positions[0, 0] = 1.0
        back = pickle.loads(pickle.dumps(member))
        assert np.array_equal(back.positions, pos[1])
        assert not back.positions.flags.writeable
        assert back._components.flags.c_contiguous
        assert back.positions.strides == back._components.strides[::-1]


class TestMeshMetrics:
    def test_mesh_ratio_and_min_radius_of_triangle(self):
        tri = PeriodicCurve(np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 3.0]]))
        assert mesh_ratio(tri) == pytest.approx(np.sqrt(10.0), rel=1e-14)
        assert min_radial(tri) == 1.0

    def test_uniform_polygon_has_unit_ratio(self):
        diamond = PeriodicCurve(np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))
        assert mesh_ratio(diamond) == 1.0

    def test_overflowing_squares_take_the_hypot_lengths(self):
        # the squared edges of a curve scaled by 1e160 overflow, so its
        # ratio comes from the hypot lengths, alone, as a member of a stack
        # beside a plain curve, and in the records of a run
        plain = interpolate(torus_circle(0.6), 16)
        big = PeriodicCurve(plain.positions * 1e160)
        lengths = big.edge_lengths()
        expect = float(lengths.max()) / float(lengths.min())
        assert math.isfinite(expect) and mesh_ratio(big) == expect
        stack = CurveStack(np.stack([big._components, plain._components], axis=1))
        assert mesh_ratio(stack) == [expect, mesh_ratio(plain)]
        assert run(big, "bdf2", 16, 1e-3, 1e-3).records[0].mesh_ratio == expect

    def test_stack_gives_one_value_per_member(self, rng):
        curves = [PeriodicCurve(random_admissible_positions(rng, 12)) for _ in range(3)]
        stack = CurveStack(np.stack([c._components for c in curves], axis=1))
        assert mesh_ratio(stack) == [mesh_ratio(c) for c in curves]
        assert min_radial(stack) == [min_radial(c) for c in curves]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 4),
        J=st.integers(3, 100),
        scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]),
    )
    def test_bounds_and_ratio_from_squares_match_hypot(self, seed, members, J, scale):
        # roots of squared edges stay within a few ulp of hypot lengths
        rng = np.random.default_rng(seed)
        pos = scale * np.stack([random_admissible_positions(rng, J) for _ in range(members)])
        vec = pos - np.roll(pos, 1, axis=1)
        lengths = np.hypot(vec[..., 0], vec[..., 1])
        stack = CurveStack(pos.transpose(2, 0, 1))
        rmin, emin = stack._bounds
        assert rmin == pos[..., 0].min(axis=1).tolist()
        np.testing.assert_array_max_ulp(np.array(emin), lengths.min(axis=1), maxulp=2)
        ratios = lengths.max(axis=1) / lengths.min(axis=1)
        np.testing.assert_array_max_ulp(np.array(mesh_ratio(stack)), ratios, maxulp=4)
        assert np.array_equal(PeriodicCurve(pos[0]).edge_lengths(), lengths[0])

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
        # the rose's petals turn both ways, so its hull comes from _hull
        curve = interpolate(rose_curve(), 96)
        with mock.patch.object(diagnostics, "_hull", wraps=diagnostics._hull) as hull:
            found = diameter(curve)
        assert hull.call_count == 1
        assert found == pytest.approx(diameter_pairwise(curve.positions), rel=1e-13)

    def test_import_leaves_qhull_unloaded(self):
        # importing the package and its command line loads no scipy.spatial
        src = str(Path(torusflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, torusflow, torusflow.cli; print('scipy.spatial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_hull_diameters_leave_qhull_unloaded(self, tmp_path):
        # rose and spiral evolves take a hull at every step, and so does a
        # small dented polygon near r = 0.5, as a curve about to collapse
        src = str(Path(torusflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = f"""
import json, sys
import numpy as np
from torusflow import PeriodicCurve, cli, diagnostics, diameter
calls, seen = [], {{}}
hull = diagnostics._hull
diagnostics._hull = lambda pts: calls.append(len(pts)) or hull(pts)
for name in ("rose", "spiral"):
    argv = ["evolve", "--scenario", name, "--scheme", "bdf2", "--nodes", "128", "--dt", "1e-3",
            "--t-end", "0.02", "--out", {str(tmp_path)!r} + "/" + name]
    seen[name] = (cli.main(argv), len(calls))
    calls.clear()
dented = 1e-3 * np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.0], [0.0, -1.0], [-1.0, 0.0]])
seen["dented"] = (diameter(PeriodicCurve(np.array([0.5, 0.0]) + dented)), len(calls))
seen["loaded"] = "scipy.spatial" in sys.modules
print(json.dumps(seen))
"""
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        seen = json.loads(out.stdout.splitlines()[-1])
        for name in ("rose", "spiral"):
            status, calls = seen[name]
            assert status == 0 and calls > 0
        assert seen["dented"][0] == pytest.approx(2e-3, rel=1e-12) and seen["dented"][1] == 1
        assert seen["loaded"] is False


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
        # the gaps between sorted distinct integers, drawn as one array
        # with a fill value: far faster than unique floats, and a huge gap
        # among small ones clusters the nodes down to ~1e-13 apart
        gaps=arrays(np.int64, st.integers(3, 300), elements=st.integers(1, 2**40)),
        axes=st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0)),
        tilt=st.floats(0.0, np.pi),
        clockwise=st.booleans(),
        decimals=st.sampled_from([None, 1, 3]),
    )
    def test_convex_polygons_either_orientation(self, gaps, axes, tilt, clockwise, decimals):
        # nodes in order along an ellipse form a convex polygon, which is
        # its own hull unless rounding makes it degenerate; the integers,
        # below 2^49, scale to distinct increasing angles in (0, 2 pi)
        k = np.cumsum(gaps)
        par = (2.0 * np.pi / (k[-1] + 1)) * k
        par = par[::-1] if clockwise else par
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

    @settings(max_examples=200, deadline=None)
    @given(
        pos=st.one_of(
            st.integers(3, 300).flatmap(
                lambda n: arrays(float, (n, 2), elements=st.floats(-10.0, 10.0))
            ),
            # nodes in order along an ellipse: a convex polygon
            st.builds(
                lambda par, axes: axes * np.column_stack([np.cos(par), np.sin(par)]),
                arrays(
                    float, st.integers(3, 300), elements=st.floats(0.0, 2.0 * np.pi), unique=True
                ).map(np.sort),
                st.tuples(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0)).map(np.array),
            ),
            st.builds(
                lambda curve, n: interpolate(curve, n).positions,
                st.sampled_from([rose_curve(), spiral_curve()]),
                st.integers(3, 300),
            ),
        ),
        decimals=st.sampled_from([None, 0, 1, 2]),
        tiny=st.booleans(),
    )
    def test_at_least_each_coordinate_span(self, pos, decimals, tiny):
        # exactly, with no tolerance: the collapse event measures the
        # diameter only of states whose radial span is below its threshold
        if decimals is not None:
            pos = np.round(pos, decimals)
        if tiny:
            pos = np.array([1.0, 0.0]) + 1e-6 * (pos - pos.mean(axis=0))
        found = diameter(PeriodicCurve(pos))
        assert found >= pos[:, 0].max() - pos[:, 0].min()
        assert found >= pos[:, 1].max() - pos[:, 1].min()

    @settings(max_examples=100, deadline=None)
    @given(
        # coordinates 0 or at least 2^-100, so that they stay normal at 2^-900
        pos=st.integers(3, 300)
        .flatmap(lambda n: arrays(float, (n, 2), elements=st.floats(-10.0, 10.0)))
        .map(lambda pos: np.where(np.abs(pos) >= 2.0**-100, pos, 0.0)),
        k=st.integers(-900, 900),
        decimals=st.sampled_from([None, 0, 1, 2]),
    )
    # scaled by 2^k, sets whose spans square to a subnormal or to inf:
    # unscaled, their diameters read 0, lost five digits and read inf
    @example(pos=np.ldexp([[1.0, 0.0], [1.0, 0.0], [1.0, 1e-200]], 600), k=-600, decimals=None)
    @example(pos=np.ldexp([[1.0, 0.0], [1.0, 1e-160], [1.0, 2e-160]], 600), k=-600, decimals=None)
    @example(pos=np.ldexp([[0.0, 0.0], [1e200, 1e200], [0.0, 2e200]], -600), k=600, decimals=None)
    def test_exact_under_scaling_by_a_power_of_two(self, pos, k, decimals):
        if decimals is not None:
            pos = np.round(pos, decimals)
        _matches_pairwise(pos)
        found = diameter(PeriodicCurve(np.ldexp(pos, k)))
        assert found == np.ldexp(diameter(PeriodicCurve(pos)), k)


def _check_hull(pts):
    """Invariants of ``_hull`` on a set of two or more nodes (a node polygon
    has three or more); returns the vertices."""
    found = diagnostics._hull(pts)
    assert found.dtype.kind == "i" and len(set(found.tolist())) == len(found) >= 1
    assert found.min() >= 0 and found.max() < len(pts)
    verts = pts[found]
    if (pts == pts[0]).all():
        assert len(found) <= 2
        return verts
    assert len(np.unique(verts, axis=0)) == len(verts)
    # a distance: the rounding of a few differences and products of coordinates
    bound = 16.0 * np.finfo(float).eps * float(np.abs(pts).max())
    if len(verts) >= 3:
        # turn at each vertex, by the chain's own products on the chain's
        # coordinates (scaled by a power of two): strictly left inside the
        # lower and the upper chain, and left up to rounding at the
        # lexicographic extremes where the two meet (a thin triangle's far
        # corner can turn by less than the rounding)
        shift = 500 - np.frexp(np.abs(pts).max())[1]
        scaled = np.ldexp(verts, shift)
        prev, after = scaled - np.roll(scaled, 1, axis=0), np.roll(scaled, -1, axis=0) - scaled
        turn = prev[:, 0] * after[:, 1] - prev[:, 1] * after[:, 0]
        order = np.lexsort((verts[:, 1], verts[:, 0]))
        ends = np.isin(np.arange(len(verts)), order[[0, -1]])
        assert (turn[~ends] > 0.0).all()
        span = np.hypot(prev[:, 0], prev[:, 1]) + np.hypot(after[:, 0], after[:, 1])
        assert (turn[ends] >= -np.ldexp(bound, shift) * span[ends]).all()
    # no node lies outside an edge's line by more than the rounding bound
    for v, e in zip(verts, np.roll(verts, -1, axis=0) - verts):
        outside = e[1] * (pts[:, 0] - v[0]) - e[0] * (pts[:, 1] - v[1])
        assert outside.max() <= bound * math.hypot(e[0], e[1])
    return verts


class TestHullProperties:
    """``_hull`` on its own: input nodes, strict counterclockwise turns,
    every node inside, and Qhull's vertices in general position."""

    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.integers(2, 300).flatmap(
            lambda n: arrays(float, (n, 2), elements=st.floats(-10.0, 10.0))
        ),
        decimals=st.sampled_from([None, 0, 1, 2]),
    )
    # a thin triangle, and a vertical step whose unscaled turn underflows
    @example(pos=np.array([[1.4477871658e-67, 1.0], [0.0, 1.0], [1.0, 0.0]]), decimals=None)
    @example(pos=np.array([[1.0, 0.0], [-5e-324, 0.0], [0.0, -1.0], [0.0, -1.5]]), decimals=None)
    def test_random_and_rounded_sets(self, pos, decimals):
        # rounding to a few decimals makes duplicates and collinear runs
        if decimals is not None:
            pos = np.round(pos, decimals)
        _check_hull(pos)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 50),
        node=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        other=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        pick=st.data(),
    )
    def test_coincident_and_two_point_sets(self, n, node, other, pick):
        # every node is one of two points, or all are the same point
        which = pick.draw(arrays(bool, n))
        pos = np.where(which[:, None], np.array(other), np.array(node))
        verts = _check_hull(pos)
        assert {tuple(v) for v in verts.tolist()} == {tuple(p) for p in pos.tolist()}

    @settings(max_examples=100, deadline=None)
    @given(
        t=arrays(np.int64, st.integers(2, 300), elements=st.integers(-1000, 1000)),
        origin=st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        direction=st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -2), (3, 1), (0, 0)]),
        scale=st.sampled_from([1.0, 0.125]),
    )
    def test_exactly_collinear_and_coincident_sets_give_the_two_extremes(
        self, t, origin, direction, scale
    ):
        # small integers times a power of two: every cross product is
        # exact, so the nodes lie exactly on one line, or on one point
        pos = scale * (np.array(origin, dtype=float) + t[:, None] * np.array(direction, dtype=float))
        order = np.lexsort((pos[:, 1], pos[:, 0]))
        assert diagnostics._hull(pos).tolist() == order[[0, -1]].tolist()
        if len(pos) >= 3:
            (x0, y0), (x1, y1) = pos[order[[0, -1]]].tolist()
            dx, dy = x1 - x0, y1 - y0
            assert diameter(PeriodicCurve(pos)) == math.sqrt(dx * dx + dy * dy)

    def test_a_node_just_off_the_line_goes_through_the_chain(self):
        t = np.arange(-5.0, 6.0)
        pos = np.column_stack([1.0 + t, 2.0 * t])
        pos[4, 1] += 2.0**-20
        assert len(_check_hull(pos)) == 3
        _matches_pairwise(pos)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        decimals=st.sampled_from([None, 5, 6]),
    )
    def test_tiny_sets(self, n, seed, decimals):
        # a collapsing curve: nodes within 1e-4 of (0.5, 0)
        pos = np.array([0.5, 0.0]) + 1e-4 * np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2))
        if decimals is not None:
            pos = np.round(pos, decimals)
        _check_hull(pos)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-4, 1.0, 10.0]),
        gaussian=st.booleans(),
    )
    def test_general_position_matches_qhull(self, n, seed, scale, gaussian):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(seed)
        draw = rng.standard_normal((n, 2)) if gaussian else rng.uniform(-1.0, 1.0, (n, 2))
        pos = np.array([0.5, 0.0]) + scale * draw
        _check_hull(pos)
        assert set(diagnostics._hull(pos).tolist()) == set(ConvexHull(pos).vertices.tolist())


class TestErrorRecord:
    def test_untracked_fields_default_to_nan(self):
        rec = ErrorRecord(step=3, time=0.1)
        assert rec.step == 3 and rec.time == 0.1
        for value in (rec.err_l2, rec.err_h1, rec.superconv_h1, rec.mesh_ratio, rec.min_radius, rec.diameter):
            assert np.isnan(value)

    def test_records_compare_by_value_nan_equal_to_nan(self):
        # nan marks an untracked field; a pickle copy holds other nan objects
        rec = ErrorRecord(step=3, time=0.1, err_l2=float("nan"), mesh_ratio=1.25, min_radius=0.5)
        assert rec == pickle.loads(pickle.dumps(rec))
        assert rec == ErrorRecord(step=3, time=0.1, err_l2=float("nan"), mesh_ratio=1.25, min_radius=0.5)
        for name in ("time", "mesh_ratio", "min_radius"):
            one_ulp = math.nextafter(getattr(rec, name), math.inf)
            assert rec != dataclasses.replace(rec, **{name: one_ulp})
        assert rec != dataclasses.replace(rec, step=4)
        assert rec != dataclasses.replace(rec, diameter=1.0)
        with pytest.raises(TypeError, match="unhashable type: 'ErrorRecord'"):
            hash(rec)
