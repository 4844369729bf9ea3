import numpy as np
import pytest

from torusflow import (
    CyclicTridiagonal,
    PeriodicCurve,
    SolveStatus,
    solve_cyclic,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)
from torusflow.cyclic_solver import RESIDUAL_RTOL

from oracles import random_admissible_positions, thomas_like_dense_solve


def random_dominant_matrix(rng, J):
    """Random strictly diagonally dominant cyclic tridiagonal system."""
    sub = rng.uniform(-1.0, 1.0, size=J)
    sup = rng.uniform(-1.0, 1.0, size=J)
    margin = rng.uniform(0.5, 2.0, size=J)
    sign = rng.choice([-1.0, 1.0], size=J)
    diag = sign * (np.abs(sub) + np.abs(sup) + margin)
    return CyclicTridiagonal(diag, sub, sup)


class TestBasics:
    def test_identity(self):
        m = CyclicTridiagonal(np.ones(5), np.zeros(5), np.zeros(5))
        rhs = np.arange(5.0)
        report = solve_cyclic(m, rhs)
        assert report.status is SolveStatus.OK
        assert np.allclose(report.solution, rhs, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        m = CyclicTridiagonal(np.ones(5), np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            solve_cyclic(m, np.ones(4))
        with pytest.raises(ValueError):
            solve_cyclic(m, np.ones((4, 2)))
        with pytest.raises(ValueError):
            solve_cyclic(m, np.ones((5, 2, 2)))

    def test_vector_and_columns_agree(self, rng):
        m = random_dominant_matrix(rng, 8)
        cols = rng.normal(size=(8, 3))
        stacked = solve_cyclic(m, cols)
        assert stacked.solution.shape == (8, 3)
        for k in range(3):
            single = solve_cyclic(m, cols[:, k])
            assert single.solution.shape == (8,)
            assert np.allclose(stacked.solution[:, k], single.solution, rtol=0, atol=1e-12)

    def test_reported_residual_is_true_residual(self, rng):
        m = random_dominant_matrix(rng, 16)
        rhs = rng.normal(size=16)
        report = solve_cyclic(m, rhs)
        actual = np.abs(m.matvec(report.solution) - rhs).max()
        assert report.residual_norm == pytest.approx(actual, rel=1e-12, abs=1e-300)

    def test_deterministic(self, rng):
        m = random_dominant_matrix(rng, 32)
        rhs = rng.normal(size=(32, 2))
        first = solve_cyclic(m, rhs)
        second = solve_cyclic(m, rhs)
        assert np.array_equal(first.solution, second.solution)
        assert first.status is second.status


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("J", [3, 4, 5, 8, 33, 257])
    def test_random_dominant_systems(self, J, rng):
        for _ in range(20):
            m = random_dominant_matrix(rng, J)
            rhs = rng.normal(size=J)
            report = solve_cyclic(m, rhs)
            assert report.status is SolveStatus.OK
            expect = thomas_like_dense_solve(m.to_dense(), rhs)
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(report.solution - expect).max() <= 1e-12 * scale

    def test_smallest_order_uses_full_matrix(self, rng):
        # J = 3 has no spare column for the rank-one update; the dense
        # route must still produce the exact solution
        for _ in range(50):
            m = random_dominant_matrix(rng, 3)
            rhs = rng.normal(size=3)
            report = solve_cyclic(m, rhs)
            expect = thomas_like_dense_solve(m.to_dense(), rhs)
            assert report.status is SolveStatus.OK
            assert np.allclose(report.solution, expect, rtol=0, atol=1e-12 * max(1.0, np.abs(expect).max()))

    def test_evolution_style_system(self, rng):
        # the matrix shape the steppers actually produce: mass / dt + stiffness
        curve = PeriodicCurve(random_admissible_positions(rng, 200))
        m = weighted_mass_matrix(curve)
        k = weighted_stiffness_matrix(curve)
        a = CyclicTridiagonal(
            m.diag / 1e-3 + k.diag, m.sub / 1e-3 + k.sub, m.sup / 1e-3 + k.sup
        )
        rhs = rng.normal(size=(200, 2))
        report = solve_cyclic(a, rhs)
        assert report.status is SolveStatus.OK
        expect = thomas_like_dense_solve(a.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-10 * np.abs(expect).max()


class TestFailureModes:
    def test_zero_matrix_reports_singular(self):
        m = CyclicTridiagonal(np.zeros(6), np.zeros(6), np.zeros(6))
        report = solve_cyclic(m, np.ones(6))
        assert report.status is SolveStatus.SINGULAR
        assert not np.isfinite(report.residual_norm)

    def test_incompatible_singular_system_is_not_hidden(self, rng):
        # a weighted stiffness matrix annihilates constants, so a right
        # hand side with a constant component has no solution; pivoted
        # elimination still has a small backward error, but the report
        # must expose the breakdown through the residual it carries
        curve = PeriodicCurve(random_admissible_positions(rng, 12))
        k = weighted_stiffness_matrix(curve)
        report = solve_cyclic(k, np.ones(12))
        true_residual = np.abs(k.matvec(report.solution) - 1.0).max()
        assert report.residual_norm == pytest.approx(true_residual, rel=1e-12)
        if report.status is SolveStatus.OK:
            # the OK certificate only promises a small backward error
            bound = RESIDUAL_RTOL * (1.0 + k.inf_norm() * np.abs(report.solution).max())
            assert true_residual <= bound
            # and the inconsistency is plainly visible to any caller
            assert report.residual_norm > 1.0

    def test_near_singular_never_reports_ok_with_bad_residual(self, rng):
        eps = 1e-15
        m = CyclicTridiagonal(np.full(8, eps), np.zeros(8), np.zeros(8))
        rhs = rng.normal(size=8)
        report = solve_cyclic(m, rhs)
        if report.status is SolveStatus.OK:
            bound = RESIDUAL_RTOL * (
                np.abs(rhs).max() + m.inf_norm() * np.abs(report.solution).max()
            )
            assert np.abs(m.matvec(report.solution) - rhs).max() <= bound
