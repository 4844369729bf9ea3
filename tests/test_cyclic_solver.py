import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import (
    CyclicTridiagonal,
    PeriodicCurve,
    SolveStatus,
    interpolate,
    solve_cyclic,
    torus_circle,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)
from torusflow.cyclic_solver import RESIDUAL_RTOL, _refined, _sherman_morrison

from oracles import random_admissible_positions, thomas_like_dense_solve


def random_dominant_matrix(rng, J):
    """Random strictly diagonally dominant cyclic tridiagonal system."""
    sub = rng.uniform(-1.0, 1.0, size=J)
    sup = rng.uniform(-1.0, 1.0, size=J)
    margin = rng.uniform(0.5, 2.0, size=J)
    sign = rng.choice([-1.0, 1.0], size=J)
    diag = sign * (np.abs(sub) + np.abs(sup) + margin)
    return CyclicTridiagonal(diag, sub, sup)


def symmetric_dominant_matrix(rng, J):
    """Random symmetric strictly diagonally dominant cyclic system; row j
    couples to row j-1 through off[j]."""
    off = rng.uniform(-1.0, 1.0, size=J)
    up = np.roll(off, -1)
    diag = np.abs(off) + np.abs(up) + rng.uniform(0.5, 2.0, size=J)
    return CyclicTridiagonal(diag, off, up)


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


class TestPaths:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(4, 200))
    def test_symmetric_positive_definite_takes_ldlt(self, seed, J):
        rng = np.random.default_rng(seed)
        m = symmetric_dominant_matrix(rng, J)
        rhs = rng.normal(size=(J, 2))
        report = solve_cyclic(m, rhs)
        assert report.path == "ldlt" and report.refinements == 0
        assert report.status is SolveStatus.OK
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_symmetric_indefinite_falls_back_to_lu(self, rng):
        m = symmetric_dominant_matrix(rng, 40)
        diag = m.diag.copy()
        diag[5:20] *= -1.0  # still dominant, no longer definite
        m = CyclicTridiagonal(diag, m.sub, m.sup)
        rhs = rng.normal(size=40)
        report = solve_cyclic(m, rhs)
        assert report.path == "lu" and report.status is SolveStatus.OK
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_nonsymmetric_takes_lu(self, rng):
        for J in (4, 33):
            report = solve_cyclic(random_dominant_matrix(rng, J), rng.normal(size=J))
            assert report.path == "lu" and report.status is SolveStatus.OK

    def test_order_three_is_dense(self, rng):
        report = solve_cyclic(symmetric_dominant_matrix(rng, 3), rng.normal(size=3))
        assert report.path == "dense" and report.status is SolveStatus.OK

    @pytest.mark.parametrize("J", [8, 64])
    def test_refinement_recovers_a_failed_audit(self, J, rng):
        # a tiny corner pivot makes the Sherman-Morrison shift
        # gamma = -diag[0] nearly cancel; the first solution misses the
        # audit and refinement on the same factors repairs it
        diag = np.full(J, 4.0)
        diag[0] = 1e-9
        m = CyclicTridiagonal(diag, np.ones(J), np.ones(J))
        rhs = rng.normal(size=J)
        report = solve_cyclic(m, rhs)
        assert report.status is SolveStatus.OK
        assert 1 <= report.refinements <= 2
        residual = np.abs(m.matvec(report.solution) - rhs).max()
        assert report.residual_norm == residual
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_singular_core_is_redone_with_the_second_shift(self):
        # with gamma = -diag[0] = -1 the tridiagonal core is
        # [[2,2,0,0],[1,1,0,0],[0,1,3,1],[0,0,1,3]], exactly singular,
        # while the cyclic matrix itself has determinant -15
        m = CyclicTridiagonal(
            np.array([1.0, 1.0, 3.0, 4.0]),
            np.array([1.0, 1.0, 1.0, 1.0]),
            np.array([2.0, 0.0, 1.0, 1.0]),
        )
        assert _sherman_morrison(m, -m.diag[0])[1] is None
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        report = solve_cyclic(m, rhs)
        assert report.path == "lu" and report.status is SolveStatus.OK
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("J", [8, 64])
    def test_ill_conditioned_core_is_redone_with_the_second_shift(self, J, rng):
        # diag[0] = 1e-15 leaves the first core so ill conditioned that
        # two refinement steps do not pass the audit; the shift -|A|_inf
        # gives a well-conditioned positive definite core
        diag = np.full(J, 4.0)
        diag[0] = 1e-15
        m = CyclicTridiagonal(diag, np.ones(J), np.ones(J))
        rhs = rng.normal(size=J)
        first = _refined(m, rhs, rhs.reshape(J, 1), *_sherman_morrison(m, -diag[0]))
        assert first.status is SolveStatus.ILL_CONDITIONED
        report = solve_cyclic(m, rhs)
        assert report.status is SolveStatus.OK
        assert (report.path, report.refinements) == ("ldlt", 0)
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_cyclic_shift_matrix_is_reported_singular(self):
        # a pure cyclic shift is nonsingular, but every Sherman-Morrison
        # core of it is singular; with no dense fallback at order >= 4
        # the solver reports SINGULAR rather than a wrong answer
        zeros = np.zeros(6)
        m = CyclicTridiagonal(zeros, zeros, np.ones(6))
        assert abs(np.linalg.det(m.to_dense())) == 1.0
        report = solve_cyclic(m, np.arange(6.0))
        assert report.status is SolveStatus.SINGULAR
        assert np.isnan(report.solution).all()

    def test_large_singular_system_stays_linear_in_memory(self):
        # the stiffness matrix annihilates constants, so this system is
        # singular and inconsistent; a dense fallback would need about
        # 20 GB here
        J = 50_000
        k = weighted_stiffness_matrix(interpolate(torus_circle(0.6), J))
        tracemalloc.start()
        try:
            report = solve_cyclic(k, np.ones(J))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        true_residual = np.abs(k.matvec(report.solution) - 1.0).max()
        assert report.residual_norm == pytest.approx(true_residual, rel=1e-12)
        assert report.residual_norm > 1.0
