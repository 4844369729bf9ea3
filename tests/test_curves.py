import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import (
    CurveFunction,
    InadmissibleCurveError,
    PeriodicCurve,
    ellipse_curve,
    interpolate,
    rose_curve,
    spiral_curve,
    torus_circle,
)

from torusflow.curves import CurveStack, _next, _previous, _wrapped

from oracles import polygon_winding, random_admissible_positions


def square_curve():
    return PeriodicCurve(np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))


class TestPeriodicCurve:
    def test_basic_properties(self):
        c = square_curve()
        assert c.node_count == 4
        assert c.spacing == 0.25
        assert np.array_equal(c.r, [3.0, 2.0, 1.0, 2.0])
        assert np.array_equal(c.z, [0.0, 1.0, 0.0, -1.0])

    def test_positions_are_immutable(self):
        c = square_curve()
        with pytest.raises(ValueError):
            c.positions[0, 0] = 99.0

    def test_positions_stay_immutable_through_a_pickle(self):
        c = pickle.loads(pickle.dumps(square_curve()))
        assert np.array_equal(c.positions, square_curve().positions)
        assert np.shares_memory(c.r, c.positions) and not c.positions.flags.writeable

    def test_compares_by_value_and_is_unhashable(self):
        c = square_curve()
        assert c == square_curve() and c == pickle.loads(pickle.dumps(c))
        c.edge_lengths()  # a cache in the instance dict takes no part
        assert c == square_curve()
        moved = c.positions.copy()
        moved[2, 1] = np.nextafter(moved[2, 1], 1.0)
        assert c != PeriodicCurve(moved) and not c == PeriodicCurve(moved)
        assert c != PeriodicCurve(c.positions[:3])
        assert c != c.positions.tolist()
        with pytest.raises(TypeError, match="unhashable type: 'PeriodicCurve'"):
            hash(c)

    def test_member_view_equals_its_checked_copy(self):
        comp = np.stack([square_curve()._components, square_curve()._components + 1.0], axis=1)
        view = CurveStack(comp).member(0)
        assert view.positions.base is not None  # a view of the stack, strides (8, 8 B J)
        assert view == square_curve() and square_curve() == view
        assert view == pickle.loads(pickle.dumps(view))
        assert CurveStack(comp).member(1) != view
        comp[1, 0, 3] = np.nextafter(comp[1, 0, 3], 0.0)
        assert CurveStack(comp).member(0) != square_curve()
        # nan equals nan; only a member view can hold it
        comp[0, 0, 1] = np.nan
        assert CurveStack(comp).member(0) == CurveStack(comp.copy()).member(0)
        with pytest.raises(TypeError, match="unhashable type: 'PeriodicCurve'"):
            hash(view)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PeriodicCurve(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            PeriodicCurve(np.ones((2, 2)))
        with pytest.raises(ValueError):
            PeriodicCurve(np.array([[1.0, np.nan], [1.0, 0.0], [2.0, 0.0]]))

    def test_edge_vector_wraps(self):
        c = square_curve()
        assert np.array_equal(c.edge_vectors()[1], [-1.0, 1.0])
        assert c.edge_lengths()[1] == pytest.approx(np.sqrt(2.0))
        # edge 0 runs from the last node back to the first
        assert np.array_equal(c.edge_vectors()[0], [1.0, 1.0])

    def test_edges_close_up(self, rng):
        pos = np.column_stack([rng.uniform(1, 2, 17), rng.uniform(-1, 1, 17)])
        c = PeriodicCurve(pos)
        total = c.edge_vectors().sum(axis=0)
        assert np.abs(total).max() <= 1e-12 * np.abs(pos).max()

    def test_bulk_edges_match_single(self):
        c = square_curve()
        vecs = c.edge_vectors()
        for j in range(4):
            single = c.positions[j] - c.positions[j - 1]
            assert np.array_equal(vecs[j], single)
            assert c.edge_lengths()[j] == pytest.approx(np.hypot(*single))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 200))
    def test_edge_data_is_read_only_and_matches_roll(self, seed, J):
        pos = random_admissible_positions(np.random.default_rng(seed), J)
        c = PeriodicCurve(pos)
        vecs = pos - np.roll(pos, 1, axis=0)
        assert np.array_equal(c.edge_vectors(), vecs)
        assert np.array_equal(c.edge_lengths(), np.hypot(vecs[:, 0], vecs[:, 1]))
        for arr in (c.edge_vectors(), c.edge_lengths()):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # computed once: later calls hand out the same arrays
        assert c.edge_vectors() is c.edge_vectors()
        assert c.edge_lengths() is c.edge_lengths()

    def test_admissibility(self):
        square_curve().require_admissible()
        bad_r = PeriodicCurve(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(InadmissibleCurveError):
            bad_r.require_admissible()
        dup = PeriodicCurve(np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(InadmissibleCurveError):
            dup.require_admissible()


class TestInterpolate:
    def test_exact_on_piecewise_linear_data(self):
        # tent function with kinks on the grid: the interpolant must
        # reproduce it exactly, including at element midpoints
        def tent(rho):
            frac = np.mod(rho, 1.0)
            return 1.0 - np.abs(1.0 - 2.0 * frac)

        f = CurveFunction(lambda rho, t=0.0: np.stack(
            [2.0 + tent(rho), tent(rho)], axis=-1))
        J = 8
        c = interpolate(f, J)
        rho_mid = (np.arange(J) + 0.5) / J
        left = c.positions
        right = np.roll(c.positions, -1, axis=0)
        assert np.allclose(0.5 * (left + right), f(rho_mid), atol=1e-15)

    def test_benchmark_nodes_at_t0(self):
        from torusflow import manufactured_solution

        c = interpolate(manufactured_solution(), 4, t=0.0)
        expected = np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]])
        assert np.allclose(c.positions, expected, atol=1e-12)

    def test_benchmark_extremes(self):
        from torusflow import manufactured_solution

        # drift starts at 2, peaks at 3 when t = 1/2
        c = interpolate(manufactured_solution(), 128, t=0.0)
        assert c.r.min() == pytest.approx(1.0, abs=1e-14)
        assert c.r.max() == pytest.approx(3.0, abs=1e-14)
        c = interpolate(manufactured_solution(), 128, t=0.5)
        assert c.r.max() == pytest.approx(4.0, abs=1e-14)

    def test_node_count_floor(self):
        with pytest.raises(ValueError, match="^node_count must be at least 3, got 2$"):
            interpolate(torus_circle(0.5), 2)

    def test_node_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="^node_count must be an integer of at least 3, got 10.5$"):
            interpolate(torus_circle(0.5), 10.5)
        with pytest.raises(ValueError, match="^node_count must be an integer of at least 3, got True$"):
            interpolate(torus_circle(0.5), True)
        curve = interpolate(torus_circle(0.5), 10.0)
        assert curve.node_count == 10
        assert np.array_equal(curve.positions, interpolate(torus_circle(0.5), 10).positions)

    def test_relabeling_equivariance(self):
        f = rose_curve()
        J, k = 24, 5
        shifted = CurveFunction(lambda rho, t=0.0: f(rho + k / J, t))
        a = interpolate(shifted, J).positions
        b = np.roll(interpolate(f, J).positions, -k, axis=0)
        assert np.allclose(a, b, atol=1e-13)


class TestCurveFunction:
    def test_fd_derivative_fallback(self):
        f = torus_circle(0.6)
        bare = CurveFunction(f.value)
        rho = np.linspace(0.0, 1.0, 37)
        assert np.allclose(bare.d_rho(rho), f.d_rho(rho), atol=1e-7)


class TestGeometries:
    def test_torus_circle_values(self):
        f = torus_circle(0.7)
        assert np.allclose(f(np.array([0.0]))[0], [1.7, 0.0], atol=1e-15)
        g = torus_circle(0.5)
        assert np.allclose(g(np.array([0.5]))[0], [0.5, 0.0], atol=1e-12)

    def test_torus_circle_admissible_extremes(self):
        c = interpolate(torus_circle(0.7), 512)
        c.require_admissible()
        assert c.r.min() == pytest.approx(0.3, abs=1e-12)

    def test_torus_circle_equal_chords(self):
        c = interpolate(torus_circle(0.5), 64)
        lens = c.edge_lengths()
        expected = 2.0 * 0.5 * np.sin(np.pi / 64)
        assert np.allclose(lens, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "radius",
        [-0.1, 0.0, 1.0, 1.5, "0.5", "a", None, True, float("nan"), pytest.param(10**400, id="huge-int")],
    )
    def test_torus_circle_domain(self, radius):
        with pytest.raises(ValueError, match="^radius must be a real number in \\(0, 1\\), got "):
            torus_circle(radius)

    def test_ellipse_anchor(self):
        f = ellipse_curve()
        assert np.allclose(f(np.array([0.0]))[0], [6.0, 0.0], atol=1e-15)
        c = interpolate(f, 128)
        c.require_admissible()
        assert c.r.min() == pytest.approx(4.0, abs=1e-14)

    def test_rose_anchor(self):
        f = rose_curve()
        assert np.allclose(f(np.array([0.0]))[0], [13.0, 0.0], atol=1e-15)
        interpolate(f, 256).require_admissible()

    def test_analytic_derivatives_match_fd(self):
        # stay away from the spiral's profile kinks at rho = 0, 1/2, 1
        rho = np.concatenate(
            [np.linspace(0.013, 0.487, 40), np.linspace(0.513, 0.987, 40)]
        )
        for f in (torus_circle(0.3), ellipse_curve(), rose_curve(), spiral_curve()):
            fd = (f(rho + 1e-6) - f(rho - 1e-6)) / 2e-6
            assert np.allclose(f.d_rho(rho), fd, atol=1e-5 * np.abs(fd).max())

    def test_spiral_default_admissible_and_winding(self):
        c = interpolate(spiral_curve(), 512)
        c.require_admissible()
        assert polygon_winding(c.positions, about=np.array([3.0, 0.0])) == 5

    def test_spiral_layer_count_sets_winding(self):
        c = interpolate(spiral_curve(layers=3), 1024)
        assert polygon_winding(c.positions, about=np.array([3.0, 0.0])) == 7

    def test_spiral_closes_up(self):
        f = spiral_curve()
        assert np.allclose(f(np.array([0.0])), f(np.array([1.0])), atol=1e-12)

    def test_spiral_stays_in_r_above_1_4(self):
        # radius 3 - (0.4 + 1.2) at the outermost turn, whatever the layers
        rho = np.linspace(0.0, 1.0, 4097)
        for layers in range(1, 9):
            assert spiral_curve(layers=layers)(rho)[:, 0].min() >= 1.4 - 1e-12

    def test_spiral_rejects_bad_params(self):
        with pytest.raises(ValueError):
            spiral_curve(layers=0)
        message = "layers must be an integer of at least 1, got 1.5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spiral_curve(layers=1.5)


class TestInterpolationAccuracy:
    def test_l2_slope_is_two(self):
        # dense-quadrature L2 interpolation error against a smooth curve
        f = torus_circle(0.5)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights
        errs = []
        for J in (32, 64, 128, 256):
            c = interpolate(f, J)
            h = 1.0 / J
            total = 0.0
            for j in range(J):
                a = c.positions[(j - 1) % J]
                b = c.positions[j]
                for s, w in zip(nodes, weights):
                    rho = ((j - 1) + s) * h
                    gap = (a * (1 - s) + b * s) - f(np.array([rho]))[0]
                    total += h * w * (gap @ gap)
            errs.append(np.sqrt(total))
        slopes = np.diff(np.log(errs)) / np.diff(np.log([1 / 32, 1 / 64, 1 / 128, 1 / 256]))
        assert np.all(slopes > 1.9) and np.all(slopes < 2.1)


def _layout(rng, shape, layout):
    """A random array of ``shape``: C-ordered, a transposed view, a view
    with negative strides, or one that steps over every other entry."""
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).T
    if layout == "reversed":
        return rng.normal(size=shape)[::-1, ...][..., ::-1]
    if layout == "stepped":
        return rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
    return rng.normal(size=shape)


class TestNodeShifts:
    """``_previous``, ``_next`` and ``_wrapped`` against np.roll and
    np.pad(mode="wrap"), on any layout: each result is a fresh C-ordered
    array, since the norms sum their temporaries in memory order."""

    @staticmethod
    def check(a, axis):
        pad = [(0, 0)] * a.ndim
        pad[axis] = (1, 1)
        for shift, expect in (
            (_previous, np.roll(a, 1, axis)),
            (_next, np.roll(a, -1, axis)),
            (_wrapped, np.pad(a, pad, mode="wrap")),
        ):
            got = shift(a, axis)
            assert np.array_equal(got, expect), shift.__name__
            assert got.flags.c_contiguous and not np.shares_memory(got, a), shift.__name__

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ndim=st.integers(1, 3),
        J=st.integers(3, 40),
        others=st.lists(st.integers(1, 4), min_size=2, max_size=2),
        layout=st.sampled_from(["c", "transposed", "reversed", "stepped"]),
        along=st.sampled_from([-1, -2]),
    )
    def test_shifts_match_roll_and_pad(self, seed, ndim, J, others, layout, along):
        axis = -1 if ndim == 1 else along
        shape = others[: ndim - 1] + [J]
        if axis == -2:
            shape[-2:] = shape[-1], shape[-2]
        a = _layout(np.random.default_rng(seed), tuple(shape), layout)
        self.check(a, axis)

    def test_stack_member_rows_and_transposed_positions(self):
        # the views a run records: a member's positions, strides (8, 8 B J),
        # its components (2, J), and a curve's (J, 2) positions transposed
        rng = np.random.default_rng(3)
        stack = CurveStack(np.ascontiguousarray(rng.normal(size=(2, 3, 17))))
        member = stack.member(1)
        assert not member.positions.flags.c_contiguous
        self.check(member.positions, -2)
        self.check(member._components, -1)
        self.check(member.positions.T, -1)
        curve = PeriodicCurve(rng.normal(size=(9, 2)) + [5.0, 0.0])
        self.check(curve.positions, -2)
        self.check(curve.positions.T, -1)
