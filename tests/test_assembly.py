import collections
import copy
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import (
    CyclicTridiagonal,
    InadmissibleCurveError,
    PeriodicCurve,
    SourceField,
    manufactured_forcing,
    radial_direction_load,
    solve_cyclic,
    source_load,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)

from torusflow import assembly
from torusflow.assembly import _basis_loads
from torusflow.curves import CurveStack
from torusflow.quadrature import element_rho

from oracles import (
    _hat_moments,
    dense_mass,
    dense_radial_load,
    dense_source_load,
    dense_stiffness,
    random_admissible_positions,
)


def diamond_curve():
    """Diamond about (2, 0): all four edges have length sqrt(2)."""
    return PeriodicCurve(np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 0.0], [2.0, -1.0]]))


class TestCyclicTridiagonal:
    def test_rejects_bad_bands(self):
        ok = np.ones(4)
        with pytest.raises(ValueError):
            CyclicTridiagonal(np.ones((2, 2)), ok, ok)
        with pytest.raises(ValueError):
            CyclicTridiagonal(ok, np.ones(3), ok)
        with pytest.raises(ValueError):
            CyclicTridiagonal(np.ones(2), np.ones(2), np.ones(2))

    def test_compares_by_value_and_is_unhashable(self, rng):
        bands = [rng.normal(size=6) for _ in range(3)]
        m = CyclicTridiagonal(*bands)
        assert m == CyclicTridiagonal(*bands) and m == pickle.loads(pickle.dumps(m))
        for i in range(3):
            moved = [band.copy() for band in bands]
            moved[i][4] = np.nextafter(moved[i][4], np.inf)
            assert m != CyclicTridiagonal(*moved)
        bands[0][2] = np.nan
        assert CyclicTridiagonal(*bands) == CyclicTridiagonal(*[band.copy() for band in bands])
        with pytest.raises(TypeError, match="unhashable type: 'CyclicTridiagonal'"):
            hash(m)

    def test_assembled_matrix_equals_its_checked_copy(self):
        # the declared symmetry and the cached row sums are no fields
        built = weighted_mass_matrix(diamond_curve())
        built.inf_norm()
        copy = CyclicTridiagonal(built.diag, built.sub, built.sup)
        assert built._symmetric and not copy._symmetric
        assert built == copy and copy == built

    @pytest.mark.parametrize("rebuild", [lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy])
    def test_copies_and_pickles_hold_read_only_bands_compared_again(self, rebuild, rng):
        # an assembled matrix declares its bands symmetric; a copy or a
        # pickle comes back read-only and without that declaration, so
        # the solver compares its bands instead of trusting them
        curves = [PeriodicCurve(random_admissible_positions(rng, 12)) for _ in range(3)]
        single = weighted_mass_matrix(curves[0])
        stack = weighted_mass_matrix(CurveStack(np.stack([c._components for c in curves], axis=1)))
        for m, rhs in ((single, rng.normal(size=(12, 2))), (stack, rng.normal(size=(3, 12, 2)))):
            back = rebuild(m)
            assert m._symmetric and not back._symmetric
            assert not any(band.flags.writeable for band in (back.diag, back.sub, back.sup))
            assert back == m
            got, want = solve_cyclic(back, rhs), solve_cyclic(m, rhs)
            assert got.solution.tobytes() == want.solution.tobytes()
            assert (got.status, got.path) == (want.status, want.path)

    def test_bands_are_immutable(self):
        m = CyclicTridiagonal(np.ones(4), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            m.diag[0] = 5.0

    def test_matvec_matches_dense(self, rng):
        for J in (3, 4, 5, 11):
            m = CyclicTridiagonal(rng.normal(size=J), rng.normal(size=J), rng.normal(size=J))
            dense = m.to_dense()
            x = rng.normal(size=J)
            assert np.allclose(m.matvec(x), dense @ x, rtol=0, atol=1e-14)
            cols = rng.normal(size=(J, 3))
            assert np.allclose(m.matvec(cols), dense @ cols, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(1,), (1, 2), (5, 2, 3)])
    def test_matvec_rejects_mis_shaped_x_by_both_shapes(self, shape):
        # none of these may broadcast against the bands of order 5
        m = CyclicTridiagonal(np.full(5, 4.0), np.ones(5), np.ones(5))
        message = re.escape(f"x must have shape (5,) or (5,) + (k,), got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            m.matvec(np.ones(shape))

    def test_matvec_band_placement(self):
        # row j couples sub[j] to node j-1 and sup[j] to node j+1
        J = 5
        m = CyclicTridiagonal(np.zeros(J), np.arange(1.0, 6.0), np.arange(10.0, 15.0))
        x = np.eye(J)[0]  # unit vector at node 0
        y = m.matvec(x)
        assert y[1] == 2.0  # sub[1] reaches back to node 0
        assert y[4] == 14.0  # sup[4] wraps forward to node 0
        assert y[0] == 0.0

    def test_dense_is_full_at_order_three(self):
        # at J = 3 every row has all three columns occupied
        m = CyclicTridiagonal(np.full(3, 2.0), np.full(3, 1.0), np.full(3, 10.0))
        dense = m.to_dense()
        expect = np.array([[2.0, 10.0, 1.0], [1.0, 2.0, 10.0], [10.0, 1.0, 2.0]])
        assert np.array_equal(dense, expect)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(m.matvec(x), dense @ x, rtol=0, atol=1e-14)

    def test_inf_norm_matches_dense(self, rng):
        for J in (3, 4, 9):
            m = CyclicTridiagonal(rng.normal(size=J), rng.normal(size=J), rng.normal(size=J))
            expect = np.abs(m.to_dense()).sum(axis=1).max()
            assert m.inf_norm() == pytest.approx(expect, rel=1e-14)


class TestHandComputedDiamond:
    """Every entry checked against hand-computed integrals.

    On the diamond all edges have length sqrt(2) and h = 1/4, so the
    squared parametric speed is 32 on every element and the radial
    weight is linear between the node radii 3, 2, 1, 2.
    """

    def test_mass_matrix(self):
        m = weighted_mass_matrix(diamond_curve())
        assert np.allclose(m.diag, [44.0 / 3.0, 32.0 / 3.0, 20.0 / 3.0, 32.0 / 3.0])
        assert np.allclose(m.sub, [10.0 / 3.0, 10.0 / 3.0, 2.0, 2.0])
        assert np.allclose(m.sup, [10.0 / 3.0, 2.0, 2.0, 10.0 / 3.0])

    def test_stiffness_matrix(self):
        k = weighted_stiffness_matrix(diamond_curve())
        assert np.allclose(k.diag, [20.0, 16.0, 12.0, 16.0])
        assert np.allclose(k.sub, [-10.0, -10.0, -6.0, -6.0])
        assert np.allclose(k.sup, [-10.0, -6.0, -6.0, -10.0])

    def test_radial_load(self):
        load = radial_direction_load(diamond_curve())
        assert np.allclose(load[:, 0], 8.0)
        assert np.array_equal(load[:, 1], np.zeros(4))


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("J", [3, 4, 5, 8, 17])
    def test_random_curves(self, J, rng):
        for _ in range(25):
            pos = random_admissible_positions(rng, J)
            curve = PeriodicCurve(pos)
            scale = max(1.0, np.abs(pos).max() ** 3 / curve.spacing)
            mass = weighted_mass_matrix(curve).to_dense()
            assert np.allclose(mass, dense_mass(pos), rtol=0, atol=1e-12 * scale)
            stiff = weighted_stiffness_matrix(curve).to_dense()
            assert np.allclose(stiff, dense_stiffness(pos), rtol=0, atol=1e-12 * scale)
            load = radial_direction_load(curve)
            assert np.allclose(load, dense_radial_load(pos), rtol=0, atol=1e-12 * scale)

    def test_source_load_against_high_order_quadrature(self):
        f = manufactured_forcing()
        ours = source_load(f, 64, 0.0)
        ref = dense_source_load(f, 64, 0.0)
        assert np.abs(ours - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_source_load_other_time(self):
        f = manufactured_forcing()
        ours = source_load(f, 48, 0.37)
        ref = dense_source_load(f, 48, 0.37)
        assert np.abs(ours - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_source_load_names_node_count(self):
        with pytest.raises(ValueError, match="^node_count must be at least 3, got 2$"):
            source_load(manufactured_forcing(), 2, 0.0)
        with pytest.raises(ValueError, match="^node_count must be an integer of at least 3, got 64.5$"):
            source_load(manufactured_forcing(), 64.5, 0.0)


def unit_rows(rho):
    """A unit radial field's values laid out as (2, n), not (n, 2)."""
    return np.stack([np.ones_like(rho), np.zeros_like(rho)])


def assert_plain_loads_are_one_shot_moments(J):
    """A plain field's load is its hat moments over the whole grid in one
    piece, bit for bit, at times of both signs."""
    f = manufactured_forcing()
    rho, s, wts = element_rho(J, 3)
    for t in (-0.25, -0.0, 0.3):
        vals = np.asarray(f.func(rho.ravel(), t)).reshape(J, 3, 2)
        assert np.array_equal(source_load(SourceField(f.func), J, t), _hat_moments(vals, s, wts))


class TestSeparableSource:
    """The manufactured forcing carries a separable form; its load is a
    combination of cached basis loads and must match the direct load."""

    @pytest.mark.parametrize("J", [3, 4, 32, 512, 50000])
    def test_combined_load_matches_direct_load(self, J):
        f = manufactured_forcing()
        direct = SourceField(f.func)
        for t in (0.0, 0.013, 0.37, 0.5, 0.77, 1.0, 1.5, 2.0):
            ref = source_load(direct, J, t)
            ours = source_load(f, J, t)
            assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_other_rules_match_direct_load(self):
        # source_load uses one rule; the basis-load cache is keyed by rule
        f = manufactured_forcing()
        for npts in (1, 2, 5):
            rho, s, wts = element_rho(40, npts)
            ref = _hat_moments(np.asarray(f.func(rho.ravel(), 0.3)).reshape(40, npts, 2), s, wts)
            ours = (f.coeffs(0.3) @ _basis_loads(f.basis, 40, npts).reshape(4, -1)).reshape(40, 2)
            assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.lists(
            st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False),
            min_size=1,
            max_size=20,
        ),
        t=st.floats(0.0, 2.0),
    )
    def test_form_equals_func_pointwise(self, rho, t):
        # the field crosses zero, so the bound is relative to the size of
        # the terms that are summed
        f = manufactured_forcing()
        rho = np.array(rho)
        basis = f.basis(rho)
        coeffs = f.coeffs(t)
        assert basis.shape == (4, len(rho), 2) and coeffs.shape == (4,)
        combined = np.einsum("k,knc->nc", coeffs, basis)
        scale = np.einsum("k,knc->nc", np.abs(coeffs), np.abs(basis))
        assert np.all(np.abs(combined - f(rho, t)) <= 1e-13 * scale)

    @pytest.mark.parametrize("J", [3, 4, 5, 8, 9, 13])
    def test_blocked_build_equals_one_shot_moments(self, monkeypatch, J):
        # the loads are built a block of elements at a time; with J below,
        # at and across the block size they equal the hat moments of the
        # whole grid's basis values in one piece, bit for bit
        f = manufactured_forcing()
        _basis_loads.cache_clear()
        monkeypatch.setattr(assembly, "_LOAD_BLOCK", 4)
        try:
            for npts in (1, 3):
                rho, s, wts = element_rho(J, npts)
                vals = np.asarray(f.basis(rho.ravel())).reshape(4, J, npts, 2)
                assert np.array_equal(_basis_loads(f.basis, J, npts), _hat_moments(vals, s, wts))
        finally:
            _basis_loads.cache_clear()
        assert_plain_loads_are_one_shot_moments(J)

    def test_blocked_build_at_the_default_block_size(self):
        f = manufactured_forcing()
        block = assembly._LOAD_BLOCK
        for J in (block - 1, block, 2 * block + 1):
            rho, s, wts = element_rho(J, 3)
            vals = np.asarray(f.basis(rho.ravel())).reshape(4, J, 3, 2)
            assert np.array_equal(_basis_loads(f.basis, J, 3), _hat_moments(vals, s, wts))
            assert_plain_loads_are_one_shot_moments(J)

    def test_plain_load_holds_one_block_of_values(self):
        # a plain field is evaluated a block of elements at a time too, so
        # one load at J = 50 000 holds its two (J, 2) arrays and one block
        # of values, not the whole grid's values and moments at once
        J = 50000
        field = SourceField(manufactured_forcing().func)
        element_rho(J, 3)  # the cached Gauss table is not the load's
        tracemalloc.start()
        try:
            load = source_load(field, J, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load.shape == (J, 2)
        assert peak < 5e6

    def test_every_call_shares_one_cache_entry(self):
        assert manufactured_forcing().basis is manufactured_forcing().basis
        _basis_loads.cache_clear()
        for _ in range(3):
            source_load(manufactured_forcing(), 32, 0.25)
        info = _basis_loads.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_cached_loads_are_read_only(self):
        f = manufactured_forcing()
        loads = _basis_loads(f.basis, 16, 3)
        assert loads.shape == (4, 16, 2)
        assert not loads.flags.writeable
        with pytest.raises(ValueError):
            loads[0, 0, 0] = 1.0
        out = source_load(f, 16, 0.5)
        out[:] = 0.0  # the returned load is the caller's own array
        assert np.abs(source_load(f, 16, 0.5)).max() > 0.0

    def test_held_load_is_handed_over_only_for_its_own_grid_time_and_field(self):
        # a field holds the last load computed for it: only a call for
        # that (J, t) on that field is handed it, any other call computes
        base = manufactured_forcing()
        computed = []

        def coeffs(t):
            computed.append(t)
            return base.coeffs(t)

        t = 0.3
        for J, time, same in ((16, t, True), (17, t, True), (16, np.nextafter(t, 1.0), True), (16, t, False)):
            want = source_load(manufactured_forcing(), J, time)
            f, other = (SourceField(base.func, base.basis, coeffs) for _ in range(2))
            source_load(f, 16, t)
            count = len(computed)
            assert np.array_equal(source_load(f if same else other, J, time), want)
            handed = (J, time, same) == (16, t, True)
            assert len(computed) == count + (0 if handed else 1)

    def test_writes_into_a_handed_load_leave_the_next_one(self):
        f = manufactured_forcing()
        first = source_load(f, 16, 0.7)
        want = first.copy()
        first[:] = 0.0
        handed = source_load(f, 16, 0.7)  # the copy the first call left
        assert np.array_equal(handed, want)
        handed[:] = 0.0
        assert np.array_equal(source_load(f, 16, 0.7), want)  # computed anew

    def test_a_copy_of_a_field_computes_its_own_load(self):
        # copy.copy shares the field's hold; the hold names the field it
        # belongs to, so the copy computes a load of its own
        f = manufactured_forcing()
        want = source_load(f, 16, 0.25)
        g = copy.copy(f)
        mine, theirs = source_load(f, 16, 0.25), source_load(g, 16, 0.25)
        assert mine is not theirs
        mine[:] = 0.0
        assert np.array_equal(theirs, want)
        assert np.array_equal(source_load(f, 16, 0.25), want)

    def test_a_field_without_an_instance_dict_holds_nothing(self):
        f = manufactured_forcing()
        plain = collections.namedtuple("Plain", "basis coeffs")(f.basis, f.coeffs)
        first = source_load(plain, 16, 0.7)
        assert np.array_equal(source_load(plain, 16, 0.7), first)
        assert np.array_equal(first, source_load(f, 16, 0.7))

    @pytest.mark.parametrize("separable", [True, False])
    @pytest.mark.parametrize(
        "t", ["a", None, True, np.nan, -np.inf, 10**400, np.array(0.5)],
        ids=["str", "none", "bool", "nan", "-inf", "huge-int", "array"],
    )
    def test_a_time_that_is_not_a_finite_real_is_named(self, separable, t):
        f = manufactured_forcing()
        field = f if separable else SourceField(f.func)
        with pytest.raises(ValueError, match="^t must be a finite real number, got "):
            source_load(field, 16, t)

    @pytest.mark.parametrize("t", [-0.25, -0.0, 0.0])
    def test_negative_and_signed_zero_times_are_loaded(self, t):
        f = manufactured_forcing()
        direct = source_load(SourceField(f.func), 16, t)
        assert np.allclose(source_load(f, 16, t), direct, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("given", [{"basis": np.cos}, {"coeffs": np.cos}])
    def test_half_a_form_is_rejected(self, given):
        with pytest.raises(ValueError, match="both basis and coeffs"):
            SourceField(lambda rho, t: rho, **given)

    @pytest.mark.parametrize(
        "field, message",
        [
            (
                SourceField(np.add, basis=unit_rows, coeffs=lambda t: np.ones(1)),
                "source field basis gave shape (2, 24), expected (K, 24, 2)",
            ),
            (
                SourceField(
                    manufactured_forcing().func,
                    basis=manufactured_forcing().basis,
                    coeffs=lambda t: manufactured_forcing().coeffs(t)[:3],
                ),
                "source field coeffs gave 3 entries, expected 4",
            ),
            (
                SourceField(
                    manufactured_forcing().func,
                    basis=manufactured_forcing().basis,
                    coeffs=lambda t: 1.0,
                ),
                "source field coeffs gave shape (), expected (4,)",
            ),
            (
                SourceField(
                    manufactured_forcing().func,
                    basis=manufactured_forcing().basis,
                    coeffs=lambda t: manufactured_forcing().coeffs(t)[:, None],
                ),
                "source field coeffs gave shape (4, 1), expected (4,)",
            ),
            (
                SourceField(lambda rho, t: unit_rows(rho)),
                "source field gave shape (2, 24), expected (24, 2)",
            ),
        ],
        ids=["basis", "coeffs", "coeffs_scalar", "coeffs_column", "plain"],
    )
    def test_values_of_the_wrong_shape_are_rejected_by_both_shapes(self, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            source_load(field, 8, 0.5)

    def test_field_without_form_keeps_direct_path(self):
        f = manufactured_forcing()
        plain = SourceField(f.func)
        assert plain.basis is None and plain.coeffs is None
        ref = dense_source_load(plain, 64, 0.6)
        assert np.abs(source_load(plain, 64, 0.6) - ref).max() <= 1e-8 * np.abs(ref).max()


class TestStructuralProperties:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 200))
    def test_stiffness_annihilates_constants(self, seed, J):
        curve = PeriodicCurve(random_admissible_positions(np.random.default_rng(seed), J))
        k = weighted_stiffness_matrix(curve)
        assert np.abs(k.matvec(np.ones(J))).max() <= 4 * np.finfo(float).eps * k.inf_norm()

    def test_symmetric_band_storage(self, rng):
        curve = PeriodicCurve(random_admissible_positions(rng, 9))
        for m in (weighted_mass_matrix(curve), weighted_stiffness_matrix(curve)):
            assert np.allclose(np.roll(m.sub, -1), m.sup)
            dense = m.to_dense()
            assert np.allclose(dense, dense.T)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 200))
    def test_mass_total_is_weighted_curve_measure(self, seed, J):
        # summing all entries integrates r * |W_rho|^2 over the period:
        # sum_j (r_{j-1} + r_j) / 2 * |e_j|^2 / h
        curve = PeriodicCurve(random_admissible_positions(np.random.default_rng(seed), J))
        r_mean = 0.5 * (np.roll(curve.r, 1) + curve.r)
        expect = float((r_mean * curve.edge_lengths() ** 2).sum()) / curve.spacing
        m = weighted_mass_matrix(curve)
        assert float(m.matvec(np.ones(J)).sum()) == pytest.approx(expect, rel=1e-13)
        assert float(m.to_dense().sum()) == pytest.approx(expect, rel=1e-13)

    def test_cyclic_equivariance(self, rng):
        # relabeling the nodes by a rotation permutes rows and columns
        pos = random_admissible_positions(rng, 7)
        shift = 3
        rolled = PeriodicCurve(np.roll(pos, shift, axis=0))
        base = PeriodicCurve(pos)
        perm = np.roll(np.eye(7), shift, axis=0)
        for build in (weighted_mass_matrix, weighted_stiffness_matrix):
            expect = perm @ build(base).to_dense() @ perm.T
            assert np.allclose(build(rolled).to_dense(), expect, rtol=0, atol=1e-12)
        assert np.allclose(
            radial_direction_load(rolled), perm @ radial_direction_load(base)
        )

    def test_source_load_is_linear_in_field(self, rng):
        def f1(rho, t):
            return np.stack([np.cos(2 * np.pi * rho), np.sin(4 * np.pi * rho)], axis=-1)

        def f2(rho, t):
            return np.stack([rho * 0.0 + t, np.cos(6 * np.pi * rho)], axis=-1)

        combo = SourceField(lambda rho, t: 2.0 * f1(rho, t) - 3.0 * f2(rho, t))
        expect = 2.0 * source_load(SourceField(f1), 32, 0.5) - 3.0 * source_load(
            SourceField(f2), 32, 0.5
        )
        assert np.allclose(source_load(combo, 32, 0.5), expect, rtol=0, atol=1e-13)

    def test_rejects_inadmissible_weight(self):
        axis_cross = PeriodicCurve(np.array([[1.0, 0.0], [-0.5, 1.0], [1.0, 2.0]]))
        for build in (weighted_mass_matrix, weighted_stiffness_matrix, radial_direction_load):
            with pytest.raises(InadmissibleCurveError):
                build(axis_cross)
