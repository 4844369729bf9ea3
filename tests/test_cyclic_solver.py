import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

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
from torusflow import cyclic_solver
from torusflow.cyclic_solver import RESIDUAL_RTOL, _audit, _refined, _split

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
        # at J = 3 the wrap entries are distinct from the neighbours of
        # the diagonal, so the rank-one split needs no special case and
        # must still produce the exact solution
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

    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_non_finite_rhs_is_reported_without_a_warning(self, poison, symmetric):
        # inf - inf in the audit's residual must not leak a RuntimeWarning
        sup = np.ones(8) if symmetric else np.full(8, 2.0)
        matrix = CyclicTridiagonal(np.full(8, 4.0), np.ones(8), sup)
        rhs = np.ones(8)
        rhs[3] = poison
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = solve_cyclic(matrix, rhs)
            pair = solve_cyclic(stacked([matrix, matrix]), np.stack([rhs, np.ones(8)]))
        assert (single.status, single.residual_norm) == (SolveStatus.SINGULAR, np.inf)
        assert pair.status is SolveStatus.SINGULAR
        assert pair.members[0] == (SolveStatus.SINGULAR, np.inf)
        # the finite member is solved as if alone
        assert pair.members[1][0] is SolveStatus.OK
        assert np.array_equal(pair.solution[1], solve_cyclic(matrix, np.ones(8)).solution)

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

    def test_public_constructor_matrices_are_compared_not_trusted(self, rng):
        # only the assemblers declare symmetry; the bands of any other
        # matrix are compared, so one ulp off symmetric takes LU
        m = symmetric_dominant_matrix(rng, 16)
        sup = m.sup.copy()
        sup[7] = np.nextafter(sup[7], np.inf)
        lopsided = CyclicTridiagonal(m.diag, m.sub, sup)
        for matrix, path in ((m, "ldlt"), (lopsided, "lu")):
            assert not matrix._symmetric
            report = solve_cyclic(matrix, rng.normal(size=16))
            assert report.path == path and report.status is SolveStatus.OK

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

    def test_order_three_takes_the_split(self, rng):
        # order 3 needs no dense special case: a symmetric matrix, alone
        # or in a stack, takes LDL^T and a nonsymmetric one pivoted LU
        for _ in range(20):
            cases = (
                ([symmetric_dominant_matrix(rng, 3)], "ldlt"),
                ([random_dominant_matrix(rng, 3)], "lu"),
                ([symmetric_dominant_matrix(rng, 3) for _ in range(3)], "ldlt"),
            )
            for matrices, path in cases:
                matrix = matrices[0] if len(matrices) == 1 else stacked(matrices)
                rhs = rng.normal(size=matrix.diag.shape)
                report = solve_cyclic(matrix, rhs)
                assert report.path == path and report.status is SolveStatus.OK
                for m, b, x in zip(matrices, rhs.reshape(-1, 3), report.solution.reshape(-1, 3)):
                    expect = thomas_like_dense_solve(m.to_dense(), b)
                    assert np.abs(x - expect).max() <= 1e-12 * max(1.0, np.abs(expect).max())

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

    def test_two_refinement_steps_recover_a_failed_audit(self):
        # with diag[0] = 1e-13 the core's LDL^T breaks down and its LU
        # solution passes the audit only after both refinement steps;
        # with one step allowed it would fall through to the second shift
        J = 8
        diag = np.full(J, 4.0)
        diag[0] = 1e-13
        m = CyclicTridiagonal(diag, np.ones(J), np.ones(J))
        rhs = np.arange(1.0, J + 1.0)
        report = solve_cyclic(m, rhs)
        assert (report.status, report.path, report.refinements) == (SolveStatus.OK, "lu", 2)
        expect = thomas_like_dense_solve(m.to_dense(), rhs)
        assert np.abs(report.solution - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_refinement_audits_each_solution_it_keeps_once(self):
        # the block's solution, the solution redone alone and the two
        # refined candidates are audited; the corrections are not
        J = 8
        diag = np.full(J, 4.0)
        diag[0] = 1e-13
        m = CyclicTridiagonal(diag, np.ones(J), np.ones(J))
        with mock.patch.object(cyclic_solver, "_audit", wraps=_audit) as audit:
            report = solve_cyclic(m, np.arange(1.0, J + 1.0))
        assert (report.status, report.path, report.refinements) == (SolveStatus.OK, "lu", 2)
        assert audit.call_count == 4

    def test_refinement_that_raises_the_residual_keeps_the_first_solution(self, monkeypatch):
        # a correction that makes the residual larger ends the refinement
        # at once: the report is the first solution's, as its audit found it
        J = 8
        diag = np.full(J, 4.0)
        diag[0] = 1e-13
        matrix = cyclic_solver._rows(CyclicTridiagonal(diag, np.ones(J), np.ones(J)), None)
        cols, gamma = np.arange(1.0, J + 1.0)[None, None], -matrix.diag[:, 0]
        path, first = _split(matrix, gamma, cols)
        _, ((status, res_norm),), _ = _audit(matrix, cols, first)
        assert status is SolveStatus.ILL_CONDITIONED
        calls = []

        def split(matrix, gamma, cols):
            path, x = _split(matrix, gamma, cols)
            calls.append(path)
            return path, x if len(calls) == 1 else -3.0 * x  # the correction reversed, tripled

        monkeypatch.setattr(cyclic_solver, "_split", split)
        report = _refined(matrix, cols, gamma)
        assert len(calls) == 2
        assert np.array_equal(report.solution, first)
        assert (report.residual_norm, report.status, report.refinements) == (res_norm, status, 1)
        assert report.path == path and report.members == ((status, res_norm),)

    def test_singular_core_is_redone_with_the_second_shift(self):
        # with gamma = -diag[0] = -1 the tridiagonal core is
        # [[2,2,0,0],[1,1,0,0],[0,1,3,1],[0,0,1,3]], exactly singular,
        # while the cyclic matrix itself has determinant -15
        m = CyclicTridiagonal(
            np.array([1.0, 1.0, 3.0, 4.0]),
            np.array([1.0, 1.0, 1.0, 1.0]),
            np.array([2.0, 0.0, 1.0, 1.0]),
        )
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        assert _split(stacked([m]), np.array([-m.diag[0]]), rhs.reshape(1, 1, 4))[1] is None
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
        first = _refined(stacked([m]), rhs.reshape(1, 1, J), np.array([-diag[0]]))
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


def stacked(matrices):
    """One stack of the given matrices of one order."""
    return CyclicTridiagonal._owned(
        *(np.stack([getattr(m, band) for m in matrices]) for band in ("diag", "sub", "sup"))
    )


class TestStack:
    """A stack of systems solves member by member exactly as alone."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 6), J=st.integers(3, 80))
    def test_block_split_is_bit_identical_to_serial_solves(self, seed, B, J):
        rng = np.random.default_rng(seed)
        matrices = [symmetric_dominant_matrix(rng, J) for _ in range(B)]
        rhs = rng.normal(size=(B, J, 2))
        # one block factorization serves every member: none is solved alone
        real = cyclic_solver.lapack
        dpttrf = mock.Mock(wraps=real.dpttrf)
        patched = SimpleNamespace(**{**vars(real), "dpttrf": dpttrf})
        with mock.patch.object(cyclic_solver, "lapack", patched):
            report = solve_cyclic(stacked(matrices), rhs)
        assert dpttrf.call_count == 1 and len(dpttrf.call_args.args[0]) == B * J
        assert (report.status, report.path, report.refinements) == (SolveStatus.OK, "ldlt", 0)
        alone = [solve_cyclic(m, b) for m, b in zip(matrices, rhs)]
        for i, single in enumerate(alone):
            assert np.array_equal(report.solution[i], single.solution)
            assert report.members[i] == (single.status, single.residual_norm)
        assert report.residual_norm == max(single.residual_norm for single in alone)

    def test_member_failing_its_audit_is_redone_alone(self, rng, monkeypatch):
        matrices = [symmetric_dominant_matrix(rng, 32) for _ in range(3)]
        rhs = rng.normal(size=(3, 32, 2))
        alone = [solve_cyclic(m, b) for m, b in zip(matrices, rhs)]
        real = cyclic_solver.lapack

        def spoiled_dpttrs(d, e, b, **kwargs):
            # spoil member 1's rows in the block solve only
            x, info = real.dpttrs(d, e, b, **kwargs)
            if len(d) == 3 * 32:
                x[32:64] *= 1.0 + 1e-6
            return x, info

        monkeypatch.setattr(
            cyclic_solver, "lapack", SimpleNamespace(**{**vars(real), "dpttrs": spoiled_dpttrs})
        )
        report = solve_cyclic(stacked(matrices), rhs)
        assert report.status is SolveStatus.OK and report.path == "ldlt"
        for i, single in enumerate(alone):
            assert np.array_equal(report.solution[i], single.solution)
            assert report.members[i] == (single.status, single.residual_norm)

    def test_member_that_cannot_be_solved_leaves_the_others_unchanged(self, rng):
        matrices = [symmetric_dominant_matrix(rng, 16) for _ in range(3)]
        rhs = rng.normal(size=(3, 16, 2))
        rhs[2, 5, 1] = np.nan
        report = solve_cyclic(stacked(matrices), rhs)
        assert report.status is SolveStatus.SINGULAR
        assert report.residual_norm == np.inf
        assert [status for status, _ in report.members] == [SolveStatus.OK] * 2 + [SolveStatus.SINGULAR]
        for i in (0, 1):
            assert np.array_equal(report.solution[i], solve_cyclic(matrices[i], rhs[i]).solution)

    def test_members_the_block_cannot_serve_are_solved_alone(self, rng):
        indefinite = []
        for _ in range(2):
            m = symmetric_dominant_matrix(rng, 12)
            diag = m.diag.copy()
            diag[5:] *= -1.0  # still symmetric, no longer definite
            indefinite.append(CyclicTridiagonal(diag, m.sub, m.sup))
        for matrices, path in (
            ([random_dominant_matrix(rng, 12) for _ in range(2)], "lu"),
            (indefinite, "lu"),
        ):
            J = matrices[0].order
            rhs = rng.normal(size=(2, J))
            report = solve_cyclic(stacked(matrices), rhs)
            assert report.status is SolveStatus.OK and report.path == path
            for i, m in enumerate(matrices):
                assert np.array_equal(report.solution[i], solve_cyclic(m, rhs[i]).solution)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        J=st.integers(3, 40),
        kinds=st.lists(
            st.sampled_from(["spd", "indefinite", "nonsymmetric", "tiny_pivot", "nan_rhs"]),
            min_size=1,
            max_size=5,
        ),
    )
    def test_mixed_stack_matches_its_members_solved_alone(self, seed, J, kinds):
        # an SPD block that serves every member or that a NaN member
        # misses, and blocks that indefinite, nonsymmetric or tiny-pivot
        # members keep from being factored; tiny pivots refine alone
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=(len(kinds), J, 2))
        matrices = []
        for i, kind in enumerate(kinds):
            if kind == "nonsymmetric":
                m = random_dominant_matrix(rng, J)
            elif kind == "tiny_pivot":
                diag = np.full(J, 4.0)
                diag[0] = 1e-9
                m = CyclicTridiagonal(diag, np.ones(J), np.ones(J))
            else:
                m = symmetric_dominant_matrix(rng, J)
            if kind == "indefinite":
                diag = m.diag.copy()
                diag[J // 2 :] *= -1.0  # still symmetric, no longer definite
                m = CyclicTridiagonal(diag, m.sub, m.sup)
            if kind == "nan_rhs":
                rhs[i, rng.integers(J), rng.integers(2)] = np.nan
            matrices.append(m)
        report = solve_cyclic(stacked(matrices), rhs)
        alone = [solve_cyclic(m, b) for m, b in zip(matrices, rhs)]
        for i, single in enumerate(alone):
            assert np.array_equal(report.solution[i], single.solution, equal_nan=True)
            assert report.members[i] == (single.status, single.residual_norm)
        worst = max((single.status for single in alone), key=list(SolveStatus).index)
        assert report.status is worst
        assert report.residual_norm == max(single.residual_norm for single in alone)
        assert report.refinements == max(single.refinements for single in alone)
        if set(kinds) <= {"spd", "nan_rhs"}:
            assert report.path == "ldlt"  # the block serves the stack
        else:
            # no block of these factors: every member is redone alone
            paths = {single.path for single in alone}
            assert report.path == (paths.pop() if len(paths) == 1 else "mixed")

    @pytest.mark.parametrize("shape", [(8,), (8, 1), (8, 3), (2, 8), (2, 8, 1), (2, 8, 3)])
    @pytest.mark.parametrize("make", [symmetric_dominant_matrix, random_dominant_matrix])
    def test_rhs_is_left_unchanged(self, shape, make, rng):
        # LAPACK solves in place; it must never be handed the caller's rhs
        matrices = [make(rng, 8) for _ in range(2)]
        matrix = stacked(matrices) if shape[0] == 2 else matrices[0]
        rhs = rng.normal(size=shape)
        kept = rhs.copy()
        report = solve_cyclic(matrix, rhs)
        assert report.status is SolveStatus.OK and report.solution.shape == shape
        assert np.array_equal(rhs, kept)

    def test_rhs_is_left_unchanged_by_refinement(self, rng):
        diag = np.full(8, 4.0)
        diag[0] = 1e-9
        m = CyclicTridiagonal(diag, np.ones(8), np.ones(8))
        for matrix in (m, stacked([m, m])):
            rhs = rng.normal(size=(*matrix.diag.shape, 1))
            kept = rhs.copy()
            report = solve_cyclic(matrix, rhs)
            assert report.status is SolveStatus.OK and report.refinements >= 1
            assert np.array_equal(rhs, kept)

    def test_rejects_mismatched_stack_rhs(self, rng):
        matrix = stacked([symmetric_dominant_matrix(rng, 8) for _ in range(2)])
        with pytest.raises(ValueError):
            solve_cyclic(matrix, np.ones((3, 8, 2)))
        with pytest.raises(ValueError):
            solve_cyclic(matrix, np.ones(8))


class TestAudit:
    """The audit stops at the first bound that suffices; its verdicts are
    those of the full bound |A x - b| <= RESIDUAL_RTOL (|b| + |A| |x|)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        B=st.integers(1, 4),
        J=st.integers(3, 40),
        k=st.integers(1, 3),
        symmetric=st.booleans(),
        bound=st.sampled_from(["cheap", "full"]),
        factor=st.floats(0.25, 4.0),
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        poison_rhs=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_verdicts_match_the_full_bound(
        self, seed, B, J, k, symmetric, bound, factor, poison, poison_rhs
    ):
        rng = np.random.default_rng(seed)
        make = symmetric_dominant_matrix if symmetric else random_dominant_matrix
        members = [make(rng, J) for _ in range(B)]
        bands = (np.stack([getattr(m, band) for m in members]) for band in ("diag", "sub", "sup"))
        matrix = CyclicTridiagonal._owned(*bands, symmetric)
        x = rng.normal(size=(B, J, k)) * 10.0 ** rng.uniform(-3, 3, size=(B, 1, 1))
        exact = matrix.matvec(x)
        a_norms = [m.inf_norm() for m in members]
        # each member's residual is put at `factor` times the cheap bound
        # RESIDUAL_RTOL |b| or the full one, on either side of it
        noise = rng.uniform(-1.0, 1.0, size=x.shape)
        noise /= np.abs(noise).max(axis=(1, 2), keepdims=True)
        scales = []
        for i in range(B):
            level = np.abs(exact[i]).max()
            if bound == "full":
                level += a_norms[i] * np.abs(x[i]).max()
            scales.append(factor * RESIDUAL_RTOL * level)
        cols = exact - np.array(scales)[:, None, None] * noise
        if poison is not None:
            x[rng.integers(B), rng.integers(J), rng.integers(k)] = poison
        if poison_rhs is not None:
            # an infinite b makes even the cheap bound infinite
            cols[rng.integers(B), rng.integers(J), rng.integers(k)] = poison_rhs

        with np.errstate(invalid="ignore"):  # inf - inf in a poisoned residual
            # the audit reads the solver's column-major (k, B, J) arrays
            residual, outcomes, missed = _audit(matrix, cols.transpose(2, 0, 1), x.transpose(2, 0, 1))
            product = matrix.matvec(x)

        assert len(outcomes) == B
        assert missed == [i for i, (status, _) in enumerate(outcomes) if status is not SolveStatus.OK]
        for i, (status, res) in enumerate(outcomes):
            if not np.isfinite(x[i]).all():
                assert (status, res) == (SolveStatus.SINGULAR, np.inf)
                continue
            true_res = np.abs(product[i] - cols[i]).max()
            full = RESIDUAL_RTOL * (np.abs(cols[i]).max() + a_norms[i] * np.abs(x[i]).max())
            expect = SolveStatus.OK if true_res <= full else SolveStatus.ILL_CONDITIONED
            assert status is expect
            assert res == true_res or np.isnan(res) and np.isnan(true_res)
            assert np.array_equal(residual[:, i].T, product[i] - cols[i], equal_nan=True)


class TestLapackLoader:
    """The four LAPACK routines come from SciPy's compiled wrappers,
    loaded without importing scipy.linalg; where no such file is found,
    the import of scipy.linalg.lapack serves the same reports."""

    @staticmethod
    def _python(code, *args):
        src = str(Path(cyclic_solver.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        command = [sys.executable, "-c", code, *args]
        return subprocess.run(command, env=env, capture_output=True, check=True).stdout

    def test_import_leaves_scipy_linalg_unloaded(self):
        code = """
import json, sys, torusflow, torusflow.cli
from torusflow import cyclic_solver
loaded = [name for name in sys.modules if name.startswith("scipy")]
from scipy.linalg import lapack
names = ("dpttrf", "dpttrs", "dgttrf", "dgttrs")
print(json.dumps([loaded, [getattr(cyclic_solver.lapack, n) is getattr(lapack, n) for n in names]]))
"""
        # no scipy module is left loaded, and a later import of
        # scipy.linalg hands out the very same routines
        assert json.loads(self._python(code)) == [[], [True] * 4]

    def test_scipy_linalg_imported_first_is_used_as_it_is(self):
        code = """
import sys, scipy.linalg
modules = dict(sys.modules)
from torusflow import cyclic_solver
print(cyclic_solver.lapack is scipy.linalg.lapack, all(sys.modules[name] is modules[name] for name in modules))
"""
        assert self._python(code).split() == [b"True", b"True"]

    def test_fallback_reports_equal_the_direct_path(self, rng, tmp_path):
        # a process whose locator finds no SciPy file on disk imports
        # scipy.linalg.lapack, and solves bit for bit as this one does
        symmetric = stacked([symmetric_dominant_matrix(rng, 40) for _ in range(3)])
        cases = [
            (symmetric, rng.normal(size=(3, 40, 2))),
            (random_dominant_matrix(rng, 40), rng.normal(size=40)),
        ]
        (tmp_path / "cases.pkl").write_bytes(pickle.dumps(cases))
        code = """
import importlib.util, pickle, sys
find = importlib.util.find_spec
importlib.util.find_spec = lambda name, *args: None if name == "scipy" else find(name, *args)
from torusflow import cyclic_solver, solve_cyclic
importlib.util.find_spec = find
with open(sys.argv[1], "rb") as f:
    cases = pickle.load(f)
reports = [solve_cyclic(matrix, rhs) for matrix, rhs in cases]
sys.stdout.buffer.write(pickle.dumps((cyclic_solver.lapack.__name__, reports)))
"""
        name, fallback = pickle.loads(self._python(code, str(tmp_path / "cases.pkl")))
        assert name == "scipy.linalg.lapack"
        direct = [solve_cyclic(matrix, rhs) for matrix, rhs in cases]
        assert [report.path for report in direct] == ["ldlt", "lu"]
        for one, other in zip(direct, fallback):
            # bytes tell -0.0 from 0.0, which equality does not
            assert one.solution.tobytes() == other.solution.tobytes() and one == other


class TestReportValue:
    def test_reports_compare_by_value_and_are_unhashable(self, rng):
        m = symmetric_dominant_matrix(rng, 6)
        rhs = rng.normal(size=6)
        report = solve_cyclic(m, rhs)
        assert report == solve_cyclic(m, rhs) and report == pickle.loads(pickle.dumps(report))
        moved = report.solution.copy()
        moved[3] = np.nextafter(moved[3], np.inf)
        assert report != dataclasses.replace(report, solution=moved)
        assert report != dataclasses.replace(report, refinements=1)
        with pytest.raises(TypeError, match="unhashable type: 'SolveReport'"):
            hash(report)

    def test_nan_equals_nan(self):
        # a pure cyclic shift is reported singular with a nan solution
        zeros = np.zeros(6)
        m = CyclicTridiagonal(zeros, zeros, np.ones(6))
        report = solve_cyclic(m, np.arange(6.0))
        assert np.isnan(report.solution).all()
        assert report == solve_cyclic(m, np.arange(6.0)) == pickle.loads(pickle.dumps(report))
        # and in a member's (status, residual) pair, as a stack's report holds
        members = ((SolveStatus.ILL_CONDITIONED, float("nan")),)
        odd = dataclasses.replace(report, members=members)
        assert odd == pickle.loads(pickle.dumps(odd))
        assert odd != dataclasses.replace(report, members=((SolveStatus.ILL_CONDITIONED, math.inf),))
