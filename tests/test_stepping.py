import contextlib
import dataclasses
import functools
import math
import pickle
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusflow import (
    CyclicTridiagonal,
    EventThresholds,
    PeriodicCurve,
    SchemeKind,
    SolveStatus,
    SourceField,
    StepFailure,
    StepperState,
    StopEvent,
    StopKind,
    bdf1_step,
    bdf2_step,
    cn_step,
    interpolate,
    manufactured_forcing,
    manufactured_solution,
    radial_direction_load,
    run,
    solve_cyclic,
    source_load,
    stepping,
    torus_circle,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)

from torusflow.assembly import _bands, _element_bands
from torusflow.curves import CurveStack, _NodePolygons

from oracles import dense_step, random_admissible_positions

EXACT = manufactured_solution()
FORCING = manufactured_forcing()
STEPPERS = {"bdf1": bdf1_step, "cn": cn_step, "bdf2": bdf2_step}


def stack(positions):
    """The CurveStack of curves given by their positions, (B, J, 2)."""
    return CurveStack(positions.transpose(2, 0, 1))


def history_state(J, dt, t=0.2):
    """Exact two-level history of the drifting circle on a coarse grid."""
    cur = interpolate(EXACT, J, t)
    prev = interpolate(EXACT, J, t - dt)
    return StepperState(cur, prev, t, dt, 1)


class TestStateValidation:
    def test_rejects_nonpositive_dt(self):
        cur = interpolate(EXACT, 8, 0.0)
        with pytest.raises(ValueError):
            StepperState(cur, None, 0.0, 0.0)
        with pytest.raises(ValueError):
            StepperState(cur, None, 0.0, -1e-3)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_rejects_nonfinite_dt_by_name(self, dt):
        cur = interpolate(EXACT, 8, 0.0)
        with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt!r}$"):
            StepperState(cur, None, 0.0, dt)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1e-3])
    def test_rejects_bad_time_by_name_before_any_work(self, time):
        cur = interpolate(EXACT, 8, 0.0)
        with pytest.raises(ValueError, match=f"^time must be nonnegative and finite, got {time!r}$"):
            bdf1_step(StepperState(cur, None, time, 1e-3), FORCING)

    def test_rejects_mismatched_grids(self):
        cur = interpolate(EXACT, 8, 0.0)
        prev = interpolate(EXACT, 16, 0.0)
        with pytest.raises(ValueError):
            StepperState(cur, prev, 0.0, 1e-3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda curve: run(curve.positions, "cn", 8, 1e-3, 0.01),
                "initial must be a PeriodicCurve or a CurveFunction, got ndarray",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 0.01, thresholds={"axis": 0.0}),
                "thresholds must be an EventThresholds, got dict",
            ),
            (
                lambda curve: bdf1_step(StepperState(curve.positions, None, 0.0, 1e-3)),
                "current must be a PeriodicCurve, got ndarray",
            ),
            (
                lambda curve: cn_step(StepperState(curve, curve.positions, 0.0, 1e-3)),
                "previous must be a PeriodicCurve, got ndarray",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 1e-3, observers=None),
                "observers must be a sequence of callables, got NoneType",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 1e-3, observers="print"),
                "observers must be a sequence of callables, got str",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 1e-3, observers=[1]),
                "observers must be callables, got int",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 0.01, exact=3.0),
                "exact must be a CurveFunction or None, got float",
            ),
            (
                lambda curve: run(curve, "cn", 8, 1e-3, 0.01, exact=lambda rho, t: rho),
                "exact must be a CurveFunction or None, got function",
            ),
        ],
        ids=[
            "initial", "thresholds", "current", "previous", "observers", "observers-str", "observer",
            "exact", "exact-function",
        ],
    )
    def test_rejects_wrong_input_types_by_name(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(interpolate(EXACT, 8, 0.0))

    def test_two_step_schemes_demand_history(self):
        state = StepperState(interpolate(EXACT, 8, 0.0), None, 0.0, 1e-3)
        with pytest.raises(ValueError, match="bdf1"):
            cn_step(state)
        with pytest.raises(ValueError, match="bdf1"):
            bdf2_step(state)


class TestManufacturedForcing:
    def test_matches_strong_form_by_finite_differences(self, rng):
        # r |x_rho|^2 x_t - (r x_rho)_rho + |x_rho|^2 e_r, all derivatives
        # replaced by central differences of the position field alone
        d_rho, d_t = 1e-4, 1e-5
        rho = rng.uniform(0.0, 1.0, size=100)
        t = rng.uniform(0.0, 1.0, size=100)
        worst, scale = 0.0, 0.0
        for p, s in zip(rho, t):
            x = EXACT(np.array([p]), s)[0]
            x_t = (EXACT(np.array([p]), s + d_t)[0] - EXACT(np.array([p]), s - d_t)[0]) / (2 * d_t)
            xp = EXACT(np.array([p + d_rho]), s)[0]
            xm = EXACT(np.array([p - d_rho]), s)[0]
            x_rho = (xp - xm) / (2 * d_rho)
            x_rhorho = (xp - 2 * x + xm) / d_rho**2
            r, r_rho = x[0], x_rho[0]
            speed_sq = float(x_rho @ x_rho)
            f_fd = r * speed_sq * x_t - (r_rho * x_rho + r * x_rhorho)
            f_fd[0] += speed_sq
            f = FORCING(np.array([p]), s)[0]
            worst = max(worst, np.abs(f_fd - f).max())
            scale = max(scale, np.abs(f).max())
        assert worst <= 1e-6 * scale

    def test_source_field_shape(self):
        out = FORCING(np.linspace(0, 1, 7), 0.3)
        assert out.shape == (7, 2)


class TestDefiningEquations:
    """Each accepted step must satisfy its weak form to solver accuracy."""

    def residual_scale(self, terms):
        return max(np.abs(t).max() for t in terms)

    def random_history(self, rng, J=24, dt=2e-3):
        cur_pos = random_admissible_positions(rng, J, r_min=1.0, r_max=3.0)
        prev_pos = cur_pos + 0.01 * rng.normal(size=(J, 2))
        return StepperState(PeriodicCurve(cur_pos), PeriodicCurve(prev_pos), 0.4, dt, 3)

    def test_bdf1_equation(self, rng):
        state = self.random_history(rng)
        new = bdf1_step(state, FORCING)
        cur = state.current
        mass = weighted_mass_matrix(cur)
        stiff = weighted_stiffness_matrix(cur)
        terms = [
            mass.matvec((new.positions - cur.positions) / state.dt),
            stiff.matvec(new.positions),
            radial_direction_load(cur),
            -source_load(FORCING, cur.node_count, state.time + state.dt),
        ]
        assert np.abs(sum(terms)).max() <= 1e-10 * self.residual_scale(terms)

    def test_cn_equation(self, rng):
        state = self.random_history(rng)
        new = cn_step(state, FORCING)
        cur, prev = state.current, state.previous
        mid = PeriodicCurve(1.5 * cur.positions - 0.5 * prev.positions)
        mass = weighted_mass_matrix(mid)
        stiff = weighted_stiffness_matrix(mid)
        t0, t1 = state.time, state.time + state.dt
        terms = [
            mass.matvec((new.positions - cur.positions) / state.dt),
            0.5 * stiff.matvec(new.positions + cur.positions),
            radial_direction_load(mid),
            -0.5 * (source_load(FORCING, cur.node_count, t0) + source_load(FORCING, cur.node_count, t1)),
        ]
        assert np.abs(sum(terms)).max() <= 1e-10 * self.residual_scale(terms)

    def test_bdf2_equation(self, rng):
        state = self.random_history(rng)
        new = bdf2_step(state, FORCING)
        cur, prev = state.current, state.previous
        extr = PeriodicCurve(2.0 * cur.positions - prev.positions)
        mass = weighted_mass_matrix(extr)
        stiff = weighted_stiffness_matrix(extr)
        diff = 3.0 * new.positions - 4.0 * cur.positions + prev.positions
        terms = [
            mass.matvec(diff / (2.0 * state.dt)),
            stiff.matvec(new.positions),
            radial_direction_load(extr),
            -source_load(FORCING, cur.node_count, state.time + state.dt),
        ]
        assert np.abs(sum(terms)).max() <= 1e-10 * self.residual_scale(terms)


def polynomial_source():
    """Degree-four source: both quadrature rules in play integrate its
    hat moments exactly, so the cyclic and dense steps must agree to
    rounding."""

    def func(rho, t):
        rho = np.asarray(rho, dtype=float)
        f1 = 3.0 * rho**2 - 2.0 * rho**3 + np.sin(t)
        f2 = rho**4 - rho + np.cos(t)
        return np.stack([f1, f2], axis=-1)

    return SourceField(func)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("scheme", ["bdf1", "cn", "bdf2"])
    @pytest.mark.parametrize("with_source", [False, True])
    def test_single_step_small_grid(self, scheme, with_source):
        J, dt, t = 4, 1e-2, 0.2
        state = history_state(J, dt, t)
        stepper = STEPPERS[scheme]
        source = polynomial_source() if with_source else None
        ours = stepper(state, source)
        prev = None if scheme == "bdf1" else state.previous.positions
        expect = dense_step(scheme, state.current.positions, prev, dt, t, source)
        assert np.abs(ours.positions - expect).max() <= 1e-12 * np.abs(expect).max()


def random_state(seed, J, dt=2e-3):
    """Random admissible current curve with a nearby previous curve."""
    rng = np.random.default_rng(seed)
    cur = random_admissible_positions(rng, J, r_min=1.0, r_max=3.0)
    prev = cur + 0.01 * rng.normal(size=(J, 2))
    return StepperState(PeriodicCurve(cur), PeriodicCurve(prev), 0.4, dt, 1)


def step_matrix(stepper, state, source=None):
    """The matrix a step hands to the cyclic solver."""
    seen = []

    def spy(matrix, rhs):
        seen.append(matrix)
        return solve_cyclic(matrix, rhs)

    with mock.patch.object(stepping, "solve_cyclic", spy):
        stepper(state, source)
    return seen[0]


class TestSymmetries:
    @pytest.mark.parametrize("scheme", ["bdf1", "cn", "bdf2"])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 64))
    def test_step_matrix_is_exactly_symmetric(self, scheme, seed, J):
        # the solver takes the assemblers' symmetric declaration on trust,
        # so every matrix built with it must pass the exact band compare:
        # row j's entry for node j-1 equals row j-1's entry for node j.
        # A step builds one, its step matrix, on the bands of its first
        # assembly pass; the bands of the right side's one product,
        # applied without a matrix, are that pass's mirror (CN) or come
        # from a second pass, and every band triple passes it too
        declared, assembled = [], []
        real_owned, real_element_bands = CyclicTridiagonal._owned, stepping._element_bands

        def owned(*args, **kwargs):
            matrix = real_owned(*args, **kwargs)
            if matrix._symmetric:
                declared.append(matrix)
            return matrix

        def element_bands(*args, **kwargs):
            assembled.append(real_element_bands(*args, **kwargs))
            return assembled[-1]

        with mock.patch.object(CyclicTridiagonal, "_owned", owned), mock.patch.object(
            stepping, "_element_bands", element_bands
        ):
            m = step_matrix(STEPPERS[scheme], random_state(seed, J), FORCING)
        assert len(declared) == 1 and declared[0] is m
        assert len(assembled) == (1 if scheme == "cn" else 2)
        assert all(got is band for got, band in zip((m.diag, m.sub, m.sup), assembled[0][0]))
        for _, sub, sup in (triple for pair in assembled for triple in pair):
            assert np.array_equal(sub, np.roll(sup, 1, axis=-1))

    @pytest.mark.parametrize("scheme", ["bdf1", "cn", "bdf2"])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 64), data=st.data())
    def test_cyclic_relabeling(self, scheme, seed, J, data):
        # renaming the nodes by a rotation of the periodic grid commutes
        # with stepping once the source is rotated the same way
        shift = data.draw(st.integers(1, J - 1))
        state = random_state(seed, J)
        shifted = StepperState(
            PeriodicCurve(np.roll(state.current.positions, shift, axis=0)),
            PeriodicCurve(np.roll(state.previous.positions, shift, axis=0)),
            state.time,
            state.dt,
            state.step_index,
        )
        moved = SourceField(lambda rho, t: FORCING(rho - shift / J, t))
        base = STEPPERS[scheme](state, FORCING)
        rotated = STEPPERS[scheme](shifted, moved)
        expect = np.roll(base.positions, shift, axis=0)
        assert np.abs(rotated.positions - expect).max() <= 1e-12

    @pytest.mark.parametrize("scheme", ["bdf1", "cn", "bdf2"])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(3, 64))
    def test_axial_mirror(self, scheme, seed, J):
        # flipping z with the axial source component commutes with stepping
        flip = np.array([1.0, -1.0])
        state = random_state(seed, J)
        mirrored = StepperState(
            PeriodicCurve(state.current.positions * flip),
            PeriodicCurve(state.previous.positions * flip),
            state.time,
            state.dt,
            state.step_index,
        )
        flipped_src = SourceField(lambda rho, t: FORCING(rho, t) * flip)
        base = STEPPERS[scheme](state, FORCING)
        image = STEPPERS[scheme](mirrored, flipped_src)
        expect = base.positions * flip
        assert np.abs(image.positions - expect).max() <= 1e-12

    @pytest.mark.parametrize("scheme", ["cn", "bdf2"])
    def test_every_step_solve_takes_the_symmetric_path(self, scheme):
        # the step matrices are symmetric positive definite, so every
        # solve of a run, bootstrap included, is an LDL^T one
        reports = []

        def spy(matrix, rhs):
            reports.append(solve_cyclic(matrix, rhs))
            return reports[-1]

        with mock.patch.object(stepping, "solve_cyclic", spy):
            report = run(torus_circle(0.6), scheme, 64, 1e-3, 0.05)
        assert report.event.kind is StopKind.REACHED_T
        assert len(reports) == 50
        assert {(r.path, r.refinements) for r in reports} == {("ldlt", 0)}

    def test_source_superposition(self):
        # the step is affine in the source: increments superpose exactly
        state = history_state(12, 2e-3)
        half = SourceField(lambda rho, t: 0.5 * FORCING(rho, t))
        plain = bdf2_step(state, None).positions
        full = bdf2_step(state, FORCING).positions
        part = bdf2_step(state, half).positions
        assert np.abs((full - plain) - 2.0 * (part - plain)).max() <= 1e-11


class TestStepSystem:
    def test_explicit_stiffness_rows_have_no_history_weight(self):
        # the kernel forms M (h0 X^m + h1 X^{m-1}) / dt - (1 - theta) K X^m
        # as one product, which needs (h0, h1) = (1, 0) wherever theta != 1
        for _, _, history, theta, _ in stepping._SCHEMES.values():
            assert theta == 1.0 or history == (1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 5),
        J=st.integers(3, 40),
        dt=st.floats(1e-6, 1.0),
    )
    @example(seed=0, members=1, J=3, dt=1e-3)
    def test_cn_pair_is_bit_for_bit_two_assemblies(self, seed, members, J, dt):
        # the mirrored pair, the step matrix and the right side's bands,
        # and the CN solver inputs built from it, equal two separate
        # assemblies and the public radial load exactly
        rng = np.random.default_rng(seed)
        cur = np.stack([random_admissible_positions(rng, J) for _ in range(members)])
        prev = cur + 0.01 * rng.normal(size=cur.shape)
        weight = stack(1.5 * cur - 0.5 * prev)
        c = stepping._SCHEMES[SchemeKind.CN][1]
        step, right = _bands(weight, 1.0 / dt, 0.5), _bands(weight, 1.0 / dt, -0.5)
        pair, right_bands = _element_bands(weight.r, weight._element_data, c / dt, 0.5)
        seen = []

        def spy(matrix, rhs):
            seen.append((matrix, rhs.copy()))
            return solve_cyclic(matrix, rhs)

        with mock.patch.object(stepping, "solve_cyclic", spy):
            stepping._advance(SchemeKind.CN, stack(cur), stack(prev), 0.0, dt, None, dt)
        ((matrix, rhs),) = seen
        for i, band in enumerate(("diag", "sub", "sup")):
            assert np.array_equal(pair[i], getattr(step, band))
            assert np.array_equal(getattr(matrix, band), getattr(step, band))
            assert np.array_equal(right_bands[i], getattr(right, band))
        assert np.array_equal(rhs, right.matvec(cur) - radial_direction_load(weight))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 5),
        J=st.integers(3, 40),
        scheme=st.sampled_from(list(SchemeKind)),
        forced=st.booleans(),
    )
    def test_kernel_system_equals_the_public_assemblers(self, seed, members, J, scheme, forced):
        # the matrix and right side handed to the solver are
        # (c / dt) M + theta K and M y / dt - (1 - theta) K X^m - R + F,
        # each member's built from the public assemblers at its own
        # coefficient curve
        rng = np.random.default_rng(seed)
        cur = np.stack(
            [random_admissible_positions(rng, J, r_min=1.0, r_max=3.0) for _ in range(members)]
        )
        prev = cur + 0.01 * rng.normal(size=cur.shape)
        time, dt = 0.4, 2e-3
        source = FORCING if forced else None
        seen = []

        def spy(matrix, rhs):
            seen.append((matrix, rhs))
            return solve_cyclic(matrix, rhs)

        with mock.patch.object(stepping, "solve_cyclic", spy):
            _, failures = stepping._advance(
                scheme, stack(cur), stack(prev), time, dt, source, time + dt
            )
        assert not failures
        ((matrix, rhs),) = seen
        (e0, e1), c, (h0, h1), theta, (s0, s1) = stepping._SCHEMES[scheme]
        for b, (x, x_prev) in enumerate(zip(cur, prev)):
            weight = PeriodicCurve(x if e1 == 0.0 else e0 * x + e1 * x_prev)
            mass, stiff = weighted_mass_matrix(weight), weighted_stiffness_matrix(weight)
            scale = (c / dt) * mass.inf_norm() + theta * stiff.inf_norm()
            for band in ("diag", "sub", "sup"):
                expect = (c / dt) * getattr(mass, band) + theta * getattr(stiff, band)
                assert np.abs(getattr(matrix, band)[b] - expect).max() <= 1e-13 * scale
            terms = [
                mass.matvec(h0 * x + h1 * x_prev) / dt,
                -(1.0 - theta) * stiff.matvec(x),
                -radial_direction_load(weight),
            ]
            if forced:
                terms.append(
                    s0 * source_load(FORCING, J, time) + s1 * source_load(FORCING, J, time + dt)
                )
            scale = max(np.abs(term).max() for term in terms)
            assert np.abs(rhs[b] - sum(terms)).max() <= 1e-13 * scale


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 5),
        J=st.integers(3, 64),
        scheme=st.sampled_from(list(SchemeKind)),
        how=st.sampled_from(["none", "coefficients", "degenerate"]),
        data=st.data(),
    )
    def test_new_states_carry_the_edges_and_bounds_of_a_fresh_stack(
        self, seed, members, J, scheme, how, data
    ):
        # the edges and bounds the kernel leaves in each new state's
        # caches, from one wrap of the solution, and the rows of them a
        # taken stack carries, are the values of a fresh stack of the same
        # components, also when a member fails its coefficient check or
        # its new curve is degenerate
        rng = np.random.default_rng(seed)
        cur = np.stack([random_admissible_positions(rng, J) for _ in range(members)])
        prev = cur + 0.01 * rng.normal(size=cur.shape)
        failing = data.draw(st.integers(0, members - 1))
        if how == "coefficients":
            cur[failing, 0, 0] = prev[failing, 0, 0] = -1.0  # r < 0 at every weight

        def solve(matrix, rhs):
            report = solve_cyclic(matrix, rhs)
            if how == "degenerate":
                # the failing member's new edge 1 has length zero
                report.solution[failing, 1] = report.solution[failing, 0]
            return report

        with mock.patch.object(stepping, "solve_cyclic", solve):
            new, failures = stepping._advance(
                scheme, stack(cur), stack(prev), 0.0, 1e-3, None, 1e-3
            )
        assert list(failures) == ([] if how == "none" else [failing])
        left = members - len(failures)
        assert new._components.shape == (2, left, J)
        if how == "coefficients" and members == 1:
            return  # no member is left to step
        rows = data.draw(st.lists(st.integers(0, max(left - 1, 0)), max_size=left))
        for curves in (new, new.take(rows)):
            fresh = CurveStack(curves._components.copy())
            for got, want in zip(curves._edges, fresh._edges):
                assert not got.flags.writeable and np.array_equal(got, want)
            assert curves._bounds == fresh._bounds

    def test_cached_geometry_computes_do_not_grow_with_the_steps(self):
        # the kernel seeds the caches of every state it makes, so a run
        # computes cached geometry as often at 100 steps as at 10: the
        # few first uses a cached property pays its lock on
        props = {
            name: prop for name, prop in vars(_NodePolygons).items()
            if isinstance(prop, functools.cached_property)
        }
        assert set(props) == {"_edges", "_lengths", "_bounds", "_element_data"}

        def computes(steps):
            counts = dict.fromkeys(props, 0)

            def counted(name, compute):
                def wrapper(curve):
                    counts[name] += 1
                    return compute(curve)
                return wrapper

            with contextlib.ExitStack() as patches:
                for name, prop in props.items():
                    patches.enter_context(mock.patch.object(prop, "func", counted(name, prop.func)))
                run(EXACT, "bdf2", 16, 1e-3, steps * 1e-3, source=FORCING, exact=EXACT)
            return counts

        few = computes(10)
        assert sum(few.values()) > 0 and computes(100) == few


    def test_a_cn_run_computes_each_level_load_once(self):
        # step m gets the times (m - 1) dt and m dt of one grid, so every
        # CN step after the first is handed the load of its old level;
        # at dt = 2e-4, (m - 1) dt + dt is not m dt at 17 of these steps
        computed = []

        def coeffs(t):
            computed.append(t)
            return FORCING.coeffs(t)

        dt, steps = 2e-4, 60
        forcing = SourceField(FORCING.func, FORCING.basis, coeffs)
        report = run(EXACT, "cn", 16, dt, steps * dt, source=forcing, exact=EXACT)
        assert report.event.kind is StopKind.REACHED_T
        assert computed == [m * dt for m in range(1, steps + 1)]

    def test_calls_per_step_are_the_ones_the_benchmark_traces(self):
        # perfbench wraps these names of stepping and pins their counts:
        # one solve per stacked step; source loads 1 on the bdf1
        # bootstrap, 2 per CN step, 1 per BDF2 step; each norm once per
        # record of each member
        names = ("solve_cyclic", "source_load", "l2_error", "h1_seminorm_error", "superconvergence_error")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        with contextlib.ExitStack() as patches:
            for name in names:
                patches.enter_context(
                    mock.patch.object(stepping, name, counted(name, getattr(stepping, name)))
                )
            steps = 12
            for scheme, loads in (("cn", 1 + 2 * (steps - 1)), ("bdf2", steps)):
                calls.update(dict.fromkeys(names, 0))
                report = run(EXACT, scheme, 16, 1e-3, steps * 1e-3, source=FORCING, exact=EXACT)
                assert report.event.kind is StopKind.REACHED_T
                records = len(report.records)
                assert records == steps + 1
                assert calls == {
                    "solve_cyclic": steps, "source_load": loads, "l2_error": records,
                    "h1_seminorm_error": records, "superconvergence_error": records,
                }
            calls.update(dict.fromkeys(names, 0))
            radii = (0.6, 0.62, 0.65)
            reports = stepping._run_stack(
                [torus_circle(r) for r in radii], "cn", 32, 1e-3, steps * 1e-3, exact=EXACT
            )
            assert {report.event.kind for report in reports} == {StopKind.REACHED_T}
            records = sum(len(report.records) for report in reports)
            assert records == len(radii) * (steps + 1)
            assert calls == {
                "solve_cyclic": steps, "source_load": 0, "l2_error": records,
                "h1_seminorm_error": records, "superconvergence_error": records,
            }


class TestSquaredEdgeRange:
    # the coefficient check reads squared edges, which overflow for edges
    # beyond about 1e154 and vanish below about 1e-162
    @pytest.mark.parametrize(
        "scale, kind",
        [(1e160, StopKind.SOLVER_FAILURE), (1e-170, StopKind.ELEMENT_DEGENERATE)],
    )
    def test_extreme_edges_end_typed_without_warnings(self, scale, kind):
        curve = PeriodicCurve(interpolate(torus_circle(0.5), 16).positions * scale)
        dt = 1e-3
        # no event can fire at t = 0, so the step's own check decides
        quiet = EventThresholds(axis=0.0, collapse=0.0, edge_fraction=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure) as failure:
                bdf1_step(StepperState(curve, None, 0.0, dt))
            report = run(curve, "cn", 16, dt, 10 * dt, thresholds=quiet, track_diameter=False)
        assert failure.value.kind is kind
        assert report.event.kind is kind and report.event.time == dt
        assert report.final is not None and len(report.records) == 1


    def test_new_state_with_an_edge_below_the_square_range_is_degenerate(self):
        # every solve returns a curve whose edge 1 is (0, 1e-170): its
        # square reads 0, so the step rejects it though the edge floor is 0
        def pinch(matrix, rhs):
            report = solve_cyclic(matrix, rhs)
            x = report.solution.copy()
            x[:, 0, 1] = 0.0
            x[:, 1] = x[:, 0] + [0.0, 1e-170]
            return dataclasses.replace(report, solution=x)

        dt = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(stepping, "solve_cyclic", pinch):
                report = run(
                    torus_circle(0.5), "cn", 16, dt, 10 * dt,
                    thresholds=EventThresholds(edge_fraction=0.0),
                )
        assert report.event == StopEvent(StopKind.ELEMENT_DEGENERATE, dt, 0.0)
        assert len(report.records) == 1


class TestAccuracy:
    def test_single_step_is_second_order_accurate_locally(self):
        J = 256
        gaps = []
        ladder = [0.04, 0.02, 0.01, 0.005]
        for dt in ladder:
            cur = interpolate(EXACT, J, 0.0)
            new = bdf1_step(StepperState(cur, None, 0.0, dt), FORCING)
            gaps.append(np.abs(new.positions - interpolate(EXACT, J, dt).positions).max())
        slope = np.log2(gaps[0] / gaps[-1]) / (len(ladder) - 1)
        assert slope >= 1.85

    def test_shrinking_donut_moves_toward_axis(self):
        report = run(torus_circle(0.7), SchemeKind.BDF1, 128, 1e-3, 0.05)
        assert report.event.kind is StopKind.REACHED_T
        inner = [rec.min_radius for rec in report.records]
        assert inner[-1] < inner[0] - 0.05
        assert all(b <= a + 1e-12 for a, b in zip(inner, inner[1:]))


class TestRunDriver:
    def test_zero_length_run(self):
        report = run(EXACT, SchemeKind.CN, 16, 1e-2, 0.0, exact=EXACT)
        assert report.event.kind is StopKind.REACHED_T
        assert report.event.time == 0.0
        assert len(report.records) == 1
        assert np.array_equal(report.final.positions, interpolate(EXACT, 16, 0.0).positions)

    def test_rejects_unaligned_horizon(self):
        with pytest.raises(ValueError):
            run(EXACT, SchemeKind.CN, 16, 1e-2, 0.0251)
        with pytest.raises(ValueError):
            run(EXACT, SchemeKind.CN, 16, 1e-2, -0.1)

    @pytest.mark.parametrize(
        "dt, t_end, name",
        [
            (float("nan"), 0.1, "dt"),
            (float("inf"), 0.1, "dt"),
            (0.0, 0.1, "dt"),
            (1e-2, float("nan"), "t_end"),
            (1e-2, float("inf"), "t_end"),
            (5e-324, 0.1, "t_end / dt"),
            pytest.param(10**400, 0.1, "dt", id="huge-int-dt"),
            pytest.param(1e-2, 10**400, "t_end", id="huge-int-t_end"),
            (True, 2.0, "dt"),
            (1e-2, True, "t_end"),
        ],
    )
    def test_rejects_bad_step_inputs_by_name(self, dt, t_end, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
            run(EXACT, SchemeKind.CN, 16, dt, t_end)

    @pytest.mark.parametrize("node_count", [2, 0, -5])
    def test_rejects_too_few_nodes_by_name(self, node_count):
        with pytest.raises(ValueError, match="^node_count must be at least 3"):
            run(EXACT, SchemeKind.CN, node_count, 1e-2, 0.1)

    @pytest.mark.parametrize("exact", [None, EXACT], ids=["without-exact", "with-exact"])
    def test_rejects_unknown_error_rule_before_any_step(self, exact):
        seen = []
        message = "unknown error rule 'bogus', expected one of ('gauss5', 'nodal')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(
                torus_circle(0.6), "cn", 16, 1e-2, 0.02, exact=exact,
                observers=[lambda *args: seen.append(args)], error_rule="bogus",
            )
        assert seen == []

    @pytest.mark.parametrize(
        "scheme", ["rk4", np.array(["cn", "bdf2"]), None], ids=["unknown", "array", "none"]
    )
    def test_rejects_a_bad_scheme_by_name(self, scheme):
        message = f"scheme must be one of bdf1, cn, bdf2, got {scheme!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(EXACT, scheme, 16, 1e-2, 0.02)

    def test_rejects_an_array_error_rule_by_name(self):
        with pytest.raises(ValueError, match="^unknown error rule array"):
            run(EXACT, "cn", 16, 1e-2, 0.02, exact=EXACT, error_rule=np.array(["nodal", "gauss5"]))

    @pytest.mark.parametrize("node_count", [64.5, float("nan"), float("inf"), "64", True])
    def test_rejects_non_integer_node_count(self, node_count):
        message = f"node_count must be an integer of at least 3, got {node_count!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(torus_circle(0.7), "cn", node_count, 5e-4, 0.01)

    def test_integral_float_node_count_is_an_integer(self):
        report = run(torus_circle(0.7), "cn", 64.0, 5e-4, 0.01)
        assert report.node_count == 64 and isinstance(report.node_count, int)
        assert report.final.node_count == 64

    def test_rejects_initial_polygon_on_wrong_grid(self):
        start = interpolate(EXACT, 16, 0.0)
        with pytest.raises(ValueError):
            run(start, SchemeKind.BDF1, 32, 1e-2, 0.1)

    def test_bootstrap_then_scheme_steps(self):
        # the first step of a two-step run is the one-step scheme, after
        # which the requested scheme takes over with the stored history
        J, dt = 20, 5e-3
        report = run(EXACT, SchemeKind.CN, J, dt, 2 * dt, source=FORCING)
        start = interpolate(EXACT, J, 0.0)
        first = bdf1_step(StepperState(start, None, 0.0, dt), FORCING)
        second = cn_step(StepperState(first, start, dt, dt, 1), FORCING)
        assert np.array_equal(report.final.positions, second.positions)

    def test_records_carry_errors_only_with_reference(self):
        with_ref = run(EXACT, SchemeKind.BDF2, 24, 1e-2, 0.05, source=FORCING, exact=EXACT)
        assert all(np.isfinite(rec.err_l2) for rec in with_ref.records)
        assert all(np.isfinite(rec.err_h1) for rec in with_ref.records)
        without = run(EXACT, SchemeKind.BDF2, 24, 1e-2, 0.05, source=FORCING)
        assert all(np.isnan(rec.err_l2) for rec in without.records)
        assert all(np.isnan(rec.superconv_h1) for rec in without.records)

    def test_record_bookkeeping_and_observers(self):
        seen = []
        report = run(
            EXACT,
            SchemeKind.BDF1,
            16,
            1e-2,
            0.05,
            observers=[lambda m, t, curve: seen.append((m, t, curve.node_count))],
        )
        assert [rec.step for rec in report.records] == list(range(6))
        assert [rec.time for rec in report.records] == pytest.approx(
            [0.01 * m for m in range(6)]
        )
        assert seen == [(m, pytest.approx(0.01 * m), 16) for m in range(6)]

    def test_deterministic_repeat(self):
        a = run(torus_circle(0.6), SchemeKind.CN, 48, 1e-3, 0.02)
        b = run(torus_circle(0.6), SchemeKind.CN, 48, 1e-3, 0.02)
        assert np.array_equal(a.final.positions, b.final.positions)

    def test_diameter_tracking_switch(self):
        tracked = run(EXACT, SchemeKind.BDF1, 16, 1e-2, 0.02, track_diameter=True)
        assert all(np.isfinite(rec.diameter) for rec in tracked.records)
        skipped = run(EXACT, SchemeKind.BDF1, 16, 1e-2, 0.02, track_diameter=False)
        assert all(np.isnan(rec.diameter) for rec in skipped.records)

    def test_diameter_recorded_by_default_at_any_node_count(self):
        report = run(torus_circle(0.6), SchemeKind.BDF1, 2048, 1e-5, 2e-5)
        assert len(report.records) == 3
        for rec in report.records:
            assert rec.diameter == pytest.approx(1.2, rel=1e-2)


class TestStoppingEvents:
    def test_axis_touch_for_thin_donut(self):
        report = run(torus_circle(0.7), SchemeKind.BDF1, 64, 1e-3, 0.3)
        assert report.event.kind is StopKind.AXIS_TOUCH
        assert 0.05 <= report.event.time <= 0.12
        assert report.event.metric < 1e-3

    def test_collapse_for_fat_donut(self):
        report = run(torus_circle(0.5), SchemeKind.BDF1, 64, 2e-4, 0.3)
        assert report.event.kind is StopKind.CURVE_COLLAPSE
        assert 0.12 <= report.event.time <= 0.15
        assert report.event.metric < 1e-3

    def test_axis_threshold_is_configurable(self):
        report = run(
            torus_circle(0.7),
            SchemeKind.BDF1,
            64,
            1e-3,
            0.3,
            thresholds=EventThresholds(axis=0.25),
        )
        assert report.event.kind is StopKind.AXIS_TOUCH
        assert report.event.time < 0.05
        assert report.event.metric < 0.25

    @pytest.mark.parametrize("name", ["axis", "collapse", "edge_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True])
    def test_thresholds_are_finite_and_nonnegative(self, name, value):
        message = f"{name} must be nonnegative and finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EventThresholds(**{name: value})

    @pytest.mark.parametrize("name", ["axis", "collapse", "edge_fraction"])
    def test_thresholds_name_an_int_too_large_for_a_float(self, name):
        message = f"{name} must be nonnegative and finite, got an integer too large for a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EventThresholds(**{name: 10**400})

    def test_diameter_is_taken_only_below_the_collapse_span(self, monkeypatch):
        # the diameter is at least the radial span, so a wider state cannot
        # collapse; this radius (the lower end of a jittered bisection
        # bracket) passes states slightly wider than that as it collapses
        spans = []
        real = stepping.diameter

        def spy(curve):
            spans.append(float(curve.r.max() - curve.r.min()))
            return real(curve)

        monkeypatch.setattr(stepping, "diameter", spy)
        (report,) = stepping._run_stack(
            [torus_circle(0.50074)], SchemeKind.CN, 256, 2e-4, 0.5, keep_records=False
        )
        assert report.event.kind is StopKind.CURVE_COLLAPSE
        assert spans and max(spans) < EventThresholds().collapse

    def test_initial_state_can_already_trigger(self):
        report = run(
            torus_circle(0.5),
            SchemeKind.BDF1,
            32,
            1e-3,
            0.1,
            thresholds=EventThresholds(edge_fraction=1e9),
        )
        assert report.event.kind is StopKind.ELEMENT_DEGENERATE
        assert report.event.time == 0.0
        assert len(report.records) == 1


class TestValues:
    """Run reports and stepper states compare by value, the curves and
    records in them through ``curves._ByValue``, nan equal to nan."""

    def test_run_reports_compare_by_value(self):
        # no exact curve and no diameter: every record holds nan fields
        args = (torus_circle(0.6), "cn", 16, 1e-3, 5e-3)
        report = run(*args, track_diameter=False)
        assert np.isnan(report.records[-1].diameter)
        assert report == run(*args, track_diameter=False)
        assert report == pickle.loads(pickle.dumps(report))
        records = list(report.records)
        last = records[-1]
        records[-1] = dataclasses.replace(last, min_radius=math.nextafter(last.min_radius, 0.0))
        assert report != dataclasses.replace(report, records=records)
        moved = report.final.positions.copy()
        moved[5, 1] = np.nextafter(moved[5, 1], np.inf)
        assert report != dataclasses.replace(report, final=PeriodicCurve(moved))
        with pytest.raises(TypeError, match="unhashable type"):
            hash(report)

    def test_stepper_states_compare_by_value(self):
        cur, prev = interpolate(EXACT, 8, 0.2), interpolate(EXACT, 8, 0.19)
        state = StepperState(cur, prev, 0.2, 0.01, 1)
        assert state == StepperState(interpolate(EXACT, 8, 0.2), prev, 0.2, 0.01, 1)
        assert state == pickle.loads(pickle.dumps(state))
        moved = cur.positions.copy()
        moved[5, 1] = np.nextafter(moved[5, 1], np.inf)
        assert state != StepperState(PeriodicCurve(moved), prev, 0.2, 0.01, 1)
        # a member view of a stack can hold nan, which equals nan
        comp = cur._components[:, None].copy()
        comp[0, 0, 3] = np.nan
        twin = CurveStack(comp.copy()).member(0)
        assert StepperState(CurveStack(comp).member(0), None, 0.2, 0.01) == StepperState(twin, None, 0.2, 0.01)
        with pytest.raises(TypeError, match="unhashable type: 'PeriodicCurve'"):
            hash(state)


class TestStack:
    """Curves advanced as one stack match their serial runs bit for bit."""

    @pytest.mark.parametrize("scheme", ["cn", "bdf2"])
    @settings(max_examples=8, deadline=None)
    @given(
        radii=st.lists(st.floats(0.45, 0.75, exclude_min=True, exclude_max=True), max_size=5),
        J=st.integers(16, 64),
    )
    def test_members_match_serial_runs(self, scheme, radii, J):
        # the thin torus at r = 0.74 touches the axis early and leaves
        # the stack while any fatter one goes on
        radii = [0.74] + radii
        dt, t_end = 2e-3, 0.4
        stacked = stepping._run_stack([torus_circle(r) for r in radii], scheme, J, dt, t_end)
        assert len(stacked) == len(radii)
        for radius, ours in zip(radii, stacked):
            assert ours == run(torus_circle(radius), scheme, J, dt, t_end)
        if min(radii) < 0.7:
            assert stacked[0].event.time < max(r.event.time for r in stacked)

    @pytest.mark.parametrize("scheme", ["cn", "bdf2"])
    @pytest.mark.parametrize("axis", [0.0, 0.1])
    @settings(max_examples=6, deadline=None)
    @given(
        radii=st.lists(st.floats(0.3, 0.97), max_size=3),
        J=st.sampled_from([24, 32, 40, 48]),
    )
    def test_observers_and_retirement_match_serial_runs(self, scheme, axis, radii, J):
        # r = 0.95 starts 0.05 from the axis: with axis = 0.1 it stops at
        # t = 0; with axis = 0.0 it fails the coefficient check two steps
        # in, on these even grids where a node sits at r = 0.05.  r = 0.7
        # stops on the axis event later and r = 0.6 reaches t_end
        radii = [0.95, 0.7, 0.6] + radii
        thresholds = EventThresholds(axis=axis)
        dt, t_end = 2e-3, 0.1

        def watch(calls):
            return lambda m, t, curve: calls.append((m, t, curve.positions.tobytes()))

        serial, expected = [], []
        for member, radius in enumerate(radii):
            calls = []
            serial.append(
                run(torus_circle(radius), scheme, J, dt, t_end, thresholds=thresholds,
                    observers=(watch(calls),))
            )
            expected += [(call[0], member, call) for call in calls]
        # a stack shows each step's members to the observers in stack order
        expected = [call for _, _, call in sorted(expected, key=lambda c: c[:2])]
        first = serial[0].event
        if axis:
            assert (first.kind, first.time) == (StopKind.AXIS_TOUCH, 0.0)
        else:
            assert first.metric <= 0.0 and len(serial[0].records) == round(first.time / dt) == 2
        assert serial[1].event.kind is StopKind.AXIS_TOUCH and serial[1].event.time > 0.0
        assert serial[2].event.kind is StopKind.REACHED_T
        for keep_records in (True, False):
            calls = []
            stacked = stepping._run_stack(
                [torus_circle(r) for r in radii], scheme, J, dt, t_end, thresholds=thresholds,
                observers=(watch(calls),), keep_records=keep_records,
            )
            assert calls == expected
            for ours, alone in zip(stacked, serial):
                assert ours == (alone if keep_records else dataclasses.replace(alone, records=[]))

    def test_member_failing_the_coefficient_check_leaves_the_others_alone(self):
        # with the axis event off, the extrapolated coefficient curve of
        # the thin torus crosses r = 0 first: that member fails the check
        # before its step is solved, and so gets no record for that step
        thresholds = EventThresholds(axis=0.0)
        dt = 5e-4
        radii = [0.5, 0.7, 0.6]
        stacked = stepping._run_stack(
            [torus_circle(r) for r in radii], "cn", 64, dt, 0.3, thresholds=thresholds
        )
        failed = stacked[1]
        assert failed.event.kind is StopKind.AXIS_TOUCH and failed.event.metric <= 0.0
        assert len(failed.records) == round(failed.event.time / dt)
        for radius, ours in zip(radii, stacked):
            assert ours == run(torus_circle(radius), "cn", 64, dt, 0.3, thresholds=thresholds)
        assert stacked[0].event.kind is StopKind.CURVE_COLLAPSE

    def test_one_step_of_a_stack_reports_each_failure_by_row(self):
        # the middle member's coefficient curve has a node on the axis
        curves = [interpolate(torus_circle(r), 16) for r in (0.5, 0.6, 0.55)]
        positions = np.stack([c.positions for c in curves])
        positions[1, 8, 0] = 0.0
        new, failures = stepping._advance(
            SchemeKind.BDF1, stack(positions), None, 0.0, 1e-3, None, 1e-3
        )
        assert list(failures) == [1]
        assert failures[1].kind is StopKind.AXIS_TOUCH and failures[1].metric == 0.0
        assert new._components.shape == (2, 2, 16)
        for row, curve in zip((0, 1), (curves[0], curves[2])):
            alone = bdf1_step(StepperState(curve, None, 0.0, 1e-3))
            assert np.array_equal(new.member(row).positions, alone.positions)

    def test_zero_coefficient_edge_fails_only_its_member(self):
        # the middle member's curves have no zero edge, but their CN
        # extrapolation 1.5 X^m - 0.5 X^{m-1} puts nodes 0 and 1 at one
        # point, exactly: (1.5 * 1.25 - 0.5 * 1.75, 1.5 * 0.25 - 0.5 * 0.75)
        curves = [interpolate(torus_circle(r), 16) for r in (0.5, 0.6, 0.55)]
        cur = np.stack([c.positions for c in curves])
        prev = cur.copy()
        cur[1, :2] = [[1.0, 0.0], [1.25, 0.25]]
        prev[1, :2] = [[1.0, 0.0], [1.75, 0.75]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, failures = stepping._advance(SchemeKind.CN, stack(cur), stack(prev), 0.0, 1e-3, None, 1e-3)
        assert list(failures) == [1]
        assert failures[1].kind is StopKind.ELEMENT_DEGENERATE and failures[1].metric == 0.0
        for row, member in zip((0, 1), (0, 2)):
            alone = cn_step(StepperState(curves[member], PeriodicCurve(prev[member]), 0.0, 1e-3))
            assert np.array_equal(new.member(row).positions, alone.positions)

    def test_member_missing_its_solve_audit_ends_on_its_last_curve(self, monkeypatch):
        # no gate run misses an audit: a stand-in solve reports the middle
        # member ILL_CONDITIONED at step m, with the residual it names
        radii, J, dt, t_end, m, residual = (0.5, 0.6, 0.55), 32, 1e-3, 0.01, 4, 3.5e-7
        serial = [run(torus_circle(r), "cn", J, dt, t_end) for r in radii]
        before = run(torus_circle(radii[1]), "cn", J, dt, (m - 1) * dt)
        solve, calls = stepping.solve_cyclic, []

        def failing(matrix, rhs):
            report = solve(matrix, rhs)
            calls.append(None)  # one solve a step, the bootstrap's included
            if len(calls) != m:
                return report
            members = list(report.members)
            members[1] = (SolveStatus.ILL_CONDITIONED, residual)
            return dataclasses.replace(
                report, status=SolveStatus.ILL_CONDITIONED, residual_norm=residual,
                members=tuple(members),
            )

        monkeypatch.setattr(stepping, "solve_cyclic", failing)
        stacked = stepping._run_stack([torus_circle(r) for r in radii], "cn", J, dt, t_end)
        failed = stacked[1]
        assert failed.event == StopEvent(StopKind.SOLVER_FAILURE, m * dt, residual)
        assert failed.final == before.final
        assert failed.records == before.records and failed.records[-1].step == m - 1
        assert stacked[0] == serial[0] and stacked[2] == serial[2]

    def test_solver_failure_raises_from_one_step(self, monkeypatch):
        solve = stepping.solve_cyclic

        def failing(matrix, rhs):
            report = solve(matrix, rhs)
            return dataclasses.replace(
                report, status=SolveStatus.ILL_CONDITIONED, residual_norm=2.5e-9,
                members=((SolveStatus.ILL_CONDITIONED, 2.5e-9),),
            )

        monkeypatch.setattr(stepping, "solve_cyclic", failing)
        with pytest.raises(StepFailure, match="^linear solve ill_conditioned at t = ") as caught:
            cn_step(history_state(16, 1e-3))
        assert (caught.value.kind, caught.value.metric) == (StopKind.SOLVER_FAILURE, 2.5e-9)

    def test_nonfinite_coefficient_curve_is_a_solver_failure(self):
        positions = interpolate(torus_circle(0.6), 16).positions[None].copy()
        positions[0, 3, 1] = np.inf
        _, failures = stepping._advance(SchemeKind.BDF1, stack(positions), None, 0.0, 1e-3, None, 1e-3)
        assert failures[0].kind is StopKind.SOLVER_FAILURE
        assert "not finite" in str(failures[0])
