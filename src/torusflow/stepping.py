"""Time stepping for the axisymmetric curvature flow of generating curves.

Each scheme advances the nodal curve by solving one cyclic tridiagonal
system shared by both spatial components.  The geometric coefficients
(weighted mass, weighted stiffness, radial load) are frozen at a curve
that is already known, which keeps every step linear.  The three schemes
are rows of one coefficient table, ``_SCHEMES``, read by one kernel:

* ``bdf1_step`` freezes them at the current curve (first order, also
  the bootstrap step for the two-step schemes),
* ``cn_step`` freezes them at the midpoint extrapolation
  (3 X^m - X^{m-1})/2 and averages the stiffness action and the source
  over the old and new time level (second order),
* ``bdf2_step`` freezes them at the extrapolation 2 X^m - X^{m-1} and
  uses the two-step backward difference in time (second order).

``run`` drives a scheme from t = 0 to a final time, recording
diagnostics each step and stopping early with a typed event when the
curve touches the axis, collapses to a point, degenerates an element,
or the linear solver fails its residual audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from math import nan
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .assembly import (
    CyclicTridiagonal,
    radial_direction_load,
    source_load,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)
from .curves import CurveFunction, PeriodicCurve, interpolate
from .cyclic_solver import SolveStatus, solve_cyclic
from .diagnostics import (
    ErrorRecord,
    diameter,
    h1_seminorm_error,
    l2_error,
    mesh_ratio,
    min_radial,
    superconvergence_error,
)

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2

__all__ = [
    "SchemeKind",
    "SourceField",
    "StopKind",
    "StopEvent",
    "EventThresholds",
    "StepFailure",
    "StepperState",
    "RunReport",
    "bdf1_step",
    "cn_step",
    "bdf2_step",
    "run",
    "manufactured_solution",
    "manufactured_forcing",
]


class SchemeKind(str, Enum):
    BDF1 = "bdf1"
    CN = "cn"
    BDF2 = "bdf2"


@dataclass(frozen=True)
class SourceField:
    """Forcing field sampled as f(rho, t) -> (n, 2), 1-periodic in rho.

    A separable field may also give its form
    f(rho, t) = sum_k coeffs(t)[k] * basis(rho)[k], with ``basis(rho)``
    returning the K basis fields, shape (K, n, 2), and ``coeffs(t)``
    their K coefficients.  ``source_load`` then loads each basis field
    once per grid and only combines the loads per call.  ``func`` stays
    the definition of the field; the form must agree with it.
    """

    func: Callable
    basis: Optional[Callable] = None
    coeffs: Optional[Callable] = None

    def __post_init__(self):
        if (self.basis is None) != (self.coeffs is None):
            raise ValueError("SourceField needs both basis and coeffs, or neither")

    def __call__(self, rho, t: float) -> np.ndarray:
        return np.asarray(self.func(np.asarray(rho, dtype=float), t), dtype=float)


class StopKind(str, Enum):
    REACHED_T = "reached_T"
    AXIS_TOUCH = "axis_touch"
    CURVE_COLLAPSE = "curve_collapse"
    ELEMENT_DEGENERATE = "element_degenerate"
    SOLVER_FAILURE = "solver_failure"


@dataclass(frozen=True)
class StopEvent:
    """Why a run ended, when, and the metric that crossed its threshold."""

    kind: StopKind
    time: float
    metric: float = 0.0


@dataclass(frozen=True)
class EventThresholds:
    """Trigger levels for the geometric stopping events.

    ``axis``: smallest admissible nodal radius.  ``collapse``: smallest
    admissible diameter.  ``edge_fraction``: smallest admissible edge
    length as a fraction of the reference spacing h.
    """

    axis: float = 1e-3
    collapse: float = 1e-3
    edge_fraction: float = 1e-6


class StepFailure(RuntimeError):
    """A single step could not produce an acceptable curve."""

    def __init__(self, kind: StopKind, metric: float, message: str):
        super().__init__(message)
        self.kind = kind
        self.metric = metric


@dataclass(frozen=True)
class StepperState:
    """Inputs of one step: the current curve and, for two-step schemes,
    the previous one."""

    current: PeriodicCurve
    previous: Optional[PeriodicCurve]
    time: float
    dt: float
    step_index: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.previous is not None and (
            self.previous.node_count != self.current.node_count
        ):
            raise ValueError("current and previous curves must share a grid")


@dataclass(frozen=True)
class RunReport:
    """Outcome of a run: stopping event, final curve, per-step records
    and the event thresholds the run used."""

    scheme: SchemeKind
    node_count: int
    dt: float
    t_end: float
    event: StopEvent
    final: PeriodicCurve
    records: list[ErrorRecord] = field(default_factory=list)
    thresholds: EventThresholds = field(default_factory=EventThresholds)


def _check_weight(weight: PeriodicCurve, t_new: float) -> None:
    """Pre-flag a coefficient curve that left the admissible set."""
    rmin = float(weight.r.min())
    if rmin <= 0.0:
        raise StepFailure(
            StopKind.AXIS_TOUCH,
            rmin,
            f"coefficient curve left r > 0 approaching t = {t_new:g}",
        )
    emin = float(weight.edge_lengths().min())
    if emin <= 0.0:
        raise StepFailure(
            StopKind.ELEMENT_DEGENERATE,
            emin,
            f"coefficient curve degenerated an element approaching t = {t_new:g}",
        )


def _solve_step(matrix, rhs, t_new: float) -> PeriodicCurve:
    report = solve_cyclic(matrix, rhs)
    if report.status is not SolveStatus.OK:
        raise StepFailure(
            StopKind.SOLVER_FAILURE,
            report.residual_norm,
            f"linear solve {report.status.value} at t = {t_new:g} "
            f"(residual {report.residual_norm:.3e})",
        )
    new = PeriodicCurve(report.solution)
    if float(new.edge_lengths().min()) == 0.0:
        raise StepFailure(
            StopKind.ELEMENT_DEGENERATE, 0.0, f"zero-length edge at t = {t_new:g}"
        )
    return new


# One row per scheme: extrapolation weights (e0, e1), mass factor c,
# history weights (h0, h1), implicit stiffness share theta and source
# weights (s0, s1).  With M, K and R frozen at e0 X^m + e1 X^{m-1}, the
# step solves
#   (c / dt) M X^{m+1} + theta K X^{m+1}
#     = M (h0 X^m + h1 X^{m-1}) / dt - (1 - theta) K X^m - R
#       + s0 F(t_m) + s1 F(t_{m+1}).
_SCHEMES = {
    SchemeKind.BDF1: ((1.0, 0.0), 1.0, (1.0, 0.0), 1.0, (0.0, 1.0)),
    SchemeKind.CN: ((1.5, -0.5), 1.0, (1.0, 0.0), 0.5, (0.5, 0.5)),
    SchemeKind.BDF2: ((2.0, -1.0), 1.5, (2.0, -0.5), 1.0, (0.0, 1.0)),
}


def _advance(
    kind: SchemeKind, state: StepperState, source: Optional[SourceField]
) -> PeriodicCurve:
    """One step of the scheme ``kind``, read off its row of ``_SCHEMES``."""
    (e0, e1), c, (h0, h1), theta, source_weights = _SCHEMES[kind]
    x = state.current.positions
    if e1 == 0.0:
        # a one-step scheme gives X^{m-1} zero weight everywhere
        x_prev, weight = x, state.current
    elif state.previous is None:
        raise ValueError(f"{kind.value}_step needs a previous curve; bootstrap with bdf1_step")
    else:
        x_prev = state.previous.positions
        weight = PeriodicCurve(e0 * x + e1 * x_prev)
    dt = state.dt
    t_new = state.time + dt
    _check_weight(weight, t_new)
    mass = weighted_mass_matrix(weight)
    stiff = weighted_stiffness_matrix(weight)
    matrix = CyclicTridiagonal(
        c / dt * mass.diag + theta * stiff.diag,
        c / dt * mass.sub + theta * stiff.sub,
        c / dt * mass.sup + theta * stiff.sup,
    )
    rhs = mass.matvec(h0 * x + h1 * x_prev) / dt
    if theta != 1.0:
        rhs = rhs - (1.0 - theta) * stiff.matvec(x)
    rhs = rhs - radial_direction_load(weight)
    if source is not None:
        rhs = rhs + sum(
            w * source_load(source, len(x), t)
            for w, t in zip(source_weights, (state.time, t_new))
            if w
        )
    return _solve_step(matrix, rhs, t_new)


def bdf1_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One backward Euler step with coefficients frozen at the current curve."""
    return _advance(SchemeKind.BDF1, state, source)


def cn_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One averaged step with coefficients frozen at the midpoint
    extrapolation (3 X^m - X^{m-1}) / 2.

    Every time-level quantity enters as its average over the step: the
    stiffness acts on (X^{m+1} + X^m) / 2 and the source is tested as
    (f(t_m) + f(t_{m+1})) / 2.
    """
    return _advance(SchemeKind.CN, state, source)


def bdf2_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One two-step backward difference step with coefficients frozen at
    the extrapolation 2 X^m - X^{m-1}."""
    return _advance(SchemeKind.BDF2, state, source)


_STEPPERS = {
    SchemeKind.BDF1: bdf1_step,
    SchemeKind.CN: cn_step,
    SchemeKind.BDF2: bdf2_step,
}


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that reach t_end exactly."""
    _require_positive("dt", dt)
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end!r}")
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt overflows: t_end {t_end!r}, dt {dt!r}")
    steps = int(round(ratio))
    if abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    return steps


def _state_event(
    curve: PeriodicCurve, t: float, thresholds: EventThresholds
) -> Optional[StopEvent]:
    """First triggered event of a computed state, axis before collapse
    before degeneracy."""
    rmin = float(curve.r.min())
    if rmin < thresholds.axis:
        return StopEvent(StopKind.AXIS_TOUCH, t, rmin)
    pos = curve.positions
    spans = pos.max(axis=0) - pos.min(axis=0)
    bbox_diag = math.hypot(float(spans[0]), float(spans[1]))
    # the diameter is at least bbox_diag / sqrt(2), so most states skip
    # the exact computation
    if bbox_diag < math.sqrt(2.0) * thresholds.collapse:
        diam = diameter(curve)
        if diam < thresholds.collapse:
            return StopEvent(StopKind.CURVE_COLLAPSE, t, diam)
    emin = float(curve.edge_lengths().min())
    if emin < thresholds.edge_fraction * curve.spacing:
        return StopEvent(StopKind.ELEMENT_DEGENERATE, t, emin)
    return None


def run(
    initial: Union[CurveFunction, PeriodicCurve],
    scheme: SchemeKind,
    node_count: int,
    dt: float,
    t_end: float,
    source: Optional[SourceField] = None,
    exact: Optional[CurveFunction] = None,
    thresholds: Optional[EventThresholds] = None,
    observers: Sequence[Callable] = (),
    track_diameter: bool = True,
    error_rule: str = "gauss5",
) -> RunReport:
    """March the curve from t = 0 to t_end or the first stopping event.

    ``initial`` is either a smooth curve (interpolated at t = 0) or a
    ready polygon with ``node_count`` nodes.  When ``exact`` is given,
    every record carries error norms against it under ``error_rule``.
    Observers are called as observer(step, t, curve) for the initial
    curve and every accepted step.  ``track_diameter=False`` leaves the
    diameter out of the records; the collapse event stays active either
    way.
    """
    if node_count < 3:
        raise ValueError(f"node_count must be at least 3, got {node_count!r}")
    scheme = SchemeKind(scheme)
    steps = _step_count(t_end, dt)
    if isinstance(initial, PeriodicCurve):
        start = initial
        if start.node_count != node_count:
            raise ValueError("initial curve node count disagrees with node_count")
    else:
        start = interpolate(initial, node_count, 0.0)
    thresholds = thresholds if thresholds is not None else EventThresholds()

    records: list[ErrorRecord] = []

    def record(idx: int, t: float, curve: PeriodicCurve) -> None:
        if exact is not None:
            e_l2 = l2_error(curve, exact, t, rule=error_rule)
            e_h1 = h1_seminorm_error(curve, exact, t, rule=error_rule)
            e_sup = superconvergence_error(curve, exact, t)
        else:
            e_l2 = e_h1 = e_sup = nan
        records.append(
            ErrorRecord(
                step=idx,
                time=t,
                err_l2=e_l2,
                err_h1=e_h1,
                superconv_h1=e_sup,
                mesh_ratio=mesh_ratio(curve),
                min_radius=min_radial(curve),
                diameter=diameter(curve) if track_diameter else nan,
            )
        )
        for obs in observers:
            obs(idx, t, curve)

    record(0, 0.0, start)
    state = StepperState(start, None, 0.0, dt, 0)
    event = _state_event(start, 0.0, thresholds)
    if event is None:
        for m in range(steps):
            bootstrap = state.previous is None
            try:
                new = _STEPPERS[SchemeKind.BDF1 if bootstrap else scheme](state, source)
            except StepFailure as fail:
                event = StopEvent(fail.kind, (m + 1) * dt, fail.metric)
                break
            t_new = (m + 1) * dt
            state = StepperState(new, state.current, t_new, dt, m + 1)
            record(m + 1, t_new, new)
            event = _state_event(new, t_new, thresholds)
            if event is not None:
                break
        else:
            event = StopEvent(StopKind.REACHED_T, steps * dt, 0.0)
    return RunReport(
        scheme=scheme,
        node_count=node_count,
        dt=dt,
        t_end=t_end,
        event=event,
        final=state.current,
        records=records,
        thresholds=thresholds,
    )


def _drift(t: float) -> float:
    return 2.0 + math.sin(math.pi * t)


def _drift_rate(t: float) -> float:
    return math.pi * math.cos(math.pi * t)


def manufactured_solution() -> CurveFunction:
    """Unit circle drifting along the radial axis; the exact solution used
    by the convergence harness."""

    def value(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        return np.stack([_drift(t) + np.cos(ang), np.sin(ang)], axis=-1)

    def derivative(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        return TWO_PI * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

    return CurveFunction(value, derivative)


def _forcing_basis(rho) -> np.ndarray:
    """The four rho-parts of the manufactured forcing, shape (4, n, 2):
    (1, 0), (cos 2 pi rho, 0), (cos 4 pi rho, sin 4 pi rho), (0, sin 2 pi rho)."""
    ang = TWO_PI * np.asarray(rho, dtype=float)
    out = np.zeros((4,) + ang.shape + (2,))
    out[0, ..., 0] = 1.0
    out[1, ..., 0] = np.cos(ang)
    out[2, ..., 0] = np.cos(2.0 * ang)
    out[2, ..., 1] = np.sin(2.0 * ang)
    out[3, ..., 1] = np.sin(ang)
    return out


def _forcing_coeffs(t: float) -> np.ndarray:
    """Time parts of the manufactured forcing, matching ``_forcing_basis``."""
    d = _drift(t)
    dp = _drift_rate(t)
    return FOUR_PI_SQ * np.array([d * dp + 1.0, d + dp, 1.0, d])


def manufactured_forcing() -> SourceField:
    """Forcing that makes the drifting unit circle solve the flow exactly.

    Substituting the drifting circle into the strong form
    r |x_rho|^2 x_t - (r x_rho)_rho + |x_rho|^2 e_r = f
    gives this closed form; the finite difference check lives in the
    test suite.  With d = 2 + sin(pi t), d' = pi cos(pi t) and
    c, s = cos(2 pi rho), sin(2 pi rho) it separates exactly as

    f = 4 pi^2 [(d d' + 1) (1, 0) + (d + d') (c, 0)
                + (cos 4 pi rho, sin 4 pi rho) + d (0, s)],

    because 1 - s^2 = c^2 and 2 c^2 - 1 = cos(4 pi rho); the field
    carries that form so its load is a combination of four cached ones.
    """

    def func(rho, t):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        c = np.cos(ang)
        s = np.sin(ang)
        rad = _drift(t) + c
        gp = _drift_rate(t)
        f1 = FOUR_PI_SQ * (rad * gp + rad * c - s * s + 1.0)
        f2 = FOUR_PI_SQ * (s * c + rad * s)
        return np.stack([f1, f2], axis=-1)

    return SourceField(func, _forcing_basis, _forcing_coeffs)
