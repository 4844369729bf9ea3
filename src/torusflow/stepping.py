"""Time stepping for the axisymmetric curvature flow of generating curves.

Each scheme advances the nodal curve by solving one cyclic tridiagonal
system shared by both spatial components.  The geometric coefficients
(weighted mass M, weighted stiffness K, radial load) are frozen at a
curve that is already known, which keeps every step linear: the kernel
builds (c / dt) M + theta K and the right side's one product with
(1 / dt) M - (1 - theta) K from that curve's element data.  The three
schemes are rows of one coefficient table, ``_SCHEMES``, read by one kernel:

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
or the linear solver fails its residual audit.  The kernel advances a
stack of curves on one grid at once, each member exactly as it would
go alone; ``run`` is its one-curve case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from math import nan
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .assembly import (
    _bands,
    radial_direction_load,
    source_load,
    # unused by the kernel; bound for SPAN_TARGETS in perfbench/tracing.py
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)
from .curves import CurveFunction, CurveStack, PeriodicCurve, _circle, _count, _finite, interpolate
from .cyclic_solver import SolveStatus, solve_cyclic
from .diagnostics import (
    ErrorRecord,
    _check_rule,
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
    length as a fraction of the reference spacing h.  Each must be
    finite and nonnegative.
    """

    axis: float = 1e-3
    collapse: float = 1e-3
    edge_fraction: float = 1e-6

    def __post_init__(self):
        for name in ("axis", "collapse", "edge_fraction"):
            _finite(name, getattr(self, name), positive=False)


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
        _finite("dt", self.dt)
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


def _check_weights(weight: CurveStack, t_new: float) -> dict[int, StepFailure]:
    """Pre-flag the members whose coefficient curve left the admissible
    set: not finite, r <= 0 or a zero-length edge.  It reads the
    assembler's squared edges: a member with an edge beyond about 1e154
    fails as not finite, one below about 1e-162 as degenerate."""
    _, hw, pairs = weight._element_data
    rmin = weight.r.min(axis=-1).tolist()
    emin = hw.min(axis=-1).tolist()
    # a node that is not finite leaves inf or nan in its elements' data
    largest = pairs.max(axis=-1).tolist()
    failures = {}
    for row, (r, e, p) in enumerate(zip(rmin, emin, largest)):
        if not math.isfinite(p):
            kind, metric, what = StopKind.SOLVER_FAILURE, math.inf, "is not finite"
        elif r <= 0.0:
            kind, metric, what = StopKind.AXIS_TOUCH, r, "left r > 0"
        elif e <= 0.0:
            kind, metric, what = StopKind.ELEMENT_DEGENERATE, e, "degenerated an element"
        else:
            continue
        failures[row] = StepFailure(
            kind, metric, f"coefficient curve {what} approaching t = {t_new:g}"
        )
    return failures


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
    kind: SchemeKind,
    current: CurveStack,
    previous: Optional[CurveStack],
    time: float,
    dt: float,
    source: Optional[SourceField],
) -> tuple[CurveStack, dict[int, StepFailure]]:
    """One step of the scheme ``kind``, read off its row of ``_SCHEMES``,
    for a stack of B curves on one grid.

    Every check, assembly, solve and event test runs once for the whole
    stack and each member's numbers are the ones it gets alone.  Returns
    the new curves of the members that passed, in stack order, and the
    failure of each member (by row) that did not.
    """
    (e0, e1), c, (h0, h1), theta, source_weights = _SCHEMES[kind]
    x = current.positions
    if e1 == 0.0:
        # a one-step scheme gives X^{m-1} zero weight everywhere
        x_prev, weight = x, current
    elif previous is None:
        raise ValueError(f"{kind.value}_step needs a previous curve; bootstrap with bdf1_step")
    else:
        x_prev = previous.positions
        weight = CurveStack(e0 * x + e1 * x_prev)
    t_new = time + dt
    failures = _check_weights(weight, t_new)
    rows = list(range(len(x)))
    if failures:
        rows = [row for row in rows if row not in failures]
        if not rows:
            return CurveStack(x[:0]), failures
        x, x_prev, weight = x[rows], x_prev[rows], weight.take(rows)
    matrix = _bands(weight, c / dt, theta)
    # rows with theta != 1 have (h0, h1) = (1, 0), so M y / dt with
    # y = h0 X^m + h1 X^{m-1}, minus (1 - theta) K X^m, is one product
    y = x if (h0, h1) == (1.0, 0.0) else h0 * x + h1 * x_prev
    rhs = _bands(weight, 1.0 / dt, theta - 1.0).matvec(y)
    rhs -= radial_direction_load(weight)
    if source is not None:
        rhs = rhs + sum(
            w * source_load(source, x.shape[1], t)
            for w, t in zip(source_weights, (time, t_new))
            if w
        )
    report = solve_cyclic(matrix, rhs)
    new = CurveStack(report.solution)
    emin = new._bounds[1]
    if report.status is SolveStatus.OK and all(emin):
        return new, failures
    passed = []
    for k, ((status, residual), row) in enumerate(zip(report.members, rows)):
        if status is not SolveStatus.OK:
            failures[row] = StepFailure(
                StopKind.SOLVER_FAILURE,
                residual,
                f"linear solve {status.value} at t = {t_new:g} (residual {residual:.3e})",
            )
        elif emin[k] == 0.0:
            failures[row] = StepFailure(
                StopKind.ELEMENT_DEGENERATE, 0.0, f"zero-length edge at t = {t_new:g}"
            )
        else:
            passed.append(k)
    return new.take(passed), failures


def _step_one(kind: SchemeKind, state: StepperState, source: Optional[SourceField]) -> PeriodicCurve:
    """``_advance`` for the one curve of ``state``; raises its failure."""
    previous = None if state.previous is None else CurveStack(state.previous.positions[None])
    new, failures = _advance(
        kind, CurveStack(state.current.positions[None]), previous, state.time, state.dt, source
    )
    if failures:
        raise failures[0]
    return new.member(0)


def bdf1_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One backward Euler step with coefficients frozen at the current curve."""
    return _step_one(SchemeKind.BDF1, state, source)


def cn_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One averaged step with coefficients frozen at the midpoint
    extrapolation (3 X^m - X^{m-1}) / 2.

    Every time-level quantity enters as its average over the step: the
    stiffness acts on (X^{m+1} + X^m) / 2 and the source is tested as
    (f(t_m) + f(t_{m+1})) / 2.
    """
    return _step_one(SchemeKind.CN, state, source)


def bdf2_step(state: StepperState, source: Optional[SourceField] = None) -> PeriodicCurve:
    """One two-step backward difference step with coefficients frozen at
    the extrapolation 2 X^m - X^{m-1}."""
    return _step_one(SchemeKind.BDF2, state, source)


# The stacked step of each scheme; ``_run_stack`` dispatches every step
# through this table.
_STEPPERS = {kind: partial(_advance, kind) for kind in SchemeKind}


def _nearest_step_count(name: str, t: float, dt: float, positive: bool) -> int:
    """Number of steps of size dt nearest the time ``t`` called ``name``;
    checks dt, then t (as ``_finite`` does), then that t / dt is finite."""
    _finite("dt", dt)
    _finite(name, t, positive)
    ratio = t / dt
    if not math.isfinite(ratio):
        raise ValueError(f"{name} / dt overflows: {name} {t!r}, dt {dt!r}")
    return int(round(ratio))


def _step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt that reach t_end exactly."""
    steps = _nearest_step_count("t_end", t_end, dt, positive=False)
    if abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    return steps


def _state_events(
    curves: CurveStack, t: float, thresholds: EventThresholds
) -> dict[int, StopEvent]:
    """First triggered event of each member (by row) of computed states,
    axis before collapse before degeneracy."""
    rmin, emin = curves._bounds
    rmax = curves.r.max(axis=-1).tolist()
    reach = math.sqrt(2.0) * thresholds.collapse
    edge_floor = thresholds.edge_fraction * curves.spacing
    events = {}
    for row, (low, high, shortest) in enumerate(zip(rmin, rmax, emin)):
        if low < thresholds.axis:
            events[row] = StopEvent(StopKind.AXIS_TOUCH, t, low)
            continue
        # the diameter is at least the bounding box diagonal / sqrt(2),
        # and that diagonal at least the radial span, so most states
        # skip both
        if high - low < reach:
            pos = curves.positions[row]
            spans = pos.max(axis=0) - pos.min(axis=0)
            if math.hypot(float(spans[0]), float(spans[1])) < reach:
                diam = diameter(curves.member(row))
                if diam < thresholds.collapse:
                    events[row] = StopEvent(StopKind.CURVE_COLLAPSE, t, diam)
                    continue
        if shortest < edge_floor:
            events[row] = StopEvent(StopKind.ELEMENT_DEGENERATE, t, shortest)
    return events


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
    (report,) = _run_stack(
        [initial], scheme, node_count, dt, t_end, source, exact, thresholds, observers,
        track_diameter, error_rule,
    )
    return report


def _run_stack(
    initials: Sequence[Union[CurveFunction, PeriodicCurve]],
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
    keep_records: bool = True,
) -> list[RunReport]:
    """``run`` for several curves on one grid, advanced as one stack.

    Returns one report per initial curve, each with the event, records
    and final curve its own run gives.  A member that stops leaves the
    stack; observers see every member's curves.  With
    ``keep_records=False`` every report's records are empty; the stop
    events do not read records, so they are the same either way.
    """
    _check_rule(error_rule)
    node_count = _count("node_count", node_count, 3)
    scheme = SchemeKind(scheme)
    steps = _step_count(t_end, dt)
    starts = []
    for initial in initials:
        if isinstance(initial, PeriodicCurve):
            if initial.node_count != node_count:
                raise ValueError("initial curve node count disagrees with node_count")
            starts.append(initial.positions)
        else:
            starts.append(interpolate(initial, node_count, 0.0).positions)
    thresholds = thresholds if thresholds is not None else EventThresholds()
    with_curve = bool(observers) or keep_records and (exact is not None or track_diameter)

    records: list[list[ErrorRecord]] = [[] for _ in starts]
    events: list[Optional[StopEvent]] = [None] * len(starts)
    finals: list[Optional[PeriodicCurve]] = [None] * len(starts)

    def accept(idx: int, t: float, curves: CurveStack) -> dict[int, StopEvent]:
        """Show every member's new state to the observers and record it;
        return the events it triggers."""
        if keep_records:
            ratios, rmin = mesh_ratio(curves), min_radial(curves)
        for row, member in enumerate(members if keep_records or observers else ()):
            curve = curves.member(row) if with_curve else None
            for obs in observers:
                obs(idx, t, curve)
            if not keep_records:
                continue
            if exact is not None:
                e_l2 = l2_error(curve, exact, t, rule=error_rule)
                e_h1 = h1_seminorm_error(curve, exact, t, rule=error_rule)
                e_sup = superconvergence_error(curve, exact, t)
            else:
                e_l2 = e_h1 = e_sup = nan
            records[member].append(
                ErrorRecord(
                    step=idx,
                    time=t,
                    err_l2=e_l2,
                    err_h1=e_h1,
                    superconv_h1=e_sup,
                    mesh_ratio=ratios[row],
                    min_radius=rmin[row],
                    diameter=diameter(curve) if track_diameter else nan,
                )
            )
        return _state_events(curves, t, thresholds)

    def retire(stopped: dict[int, StopEvent], curves: CurveStack) -> list[int]:
        """Close the stopped rows' runs, each ending on its curve in
        ``curves``; return the rows that go on."""
        for row, event in stopped.items():
            events[members[row]] = event
            finals[members[row]] = curves.member(row)
        return [row for row in range(len(members)) if row not in stopped]

    members = list(range(len(starts)))  # the member in each stack row
    # stored component by component, (2, B, J), as the solver returns
    # its solutions: every elementwise step then runs along whole rows
    current = CurveStack(np.stack([pos.T for pos in starts], axis=1).transpose(1, 2, 0))
    previous = None
    stopped = accept(0, 0.0, current)
    m = 0
    while True:
        if stopped:
            rows = retire(stopped, current)
            members = [members[row] for row in rows]
            current = current.take(rows)
            previous = None if previous is None else previous.take(rows)
        if not members or m == steps:
            break
        kind = SchemeKind.BDF1 if previous is None else scheme
        new, failures = _STEPPERS[kind](current, previous, m * dt, dt, source)
        m += 1
        if failures:
            # a failed member ends on its last accepted curve
            failed = {row: StopEvent(f.kind, m * dt, f.metric) for row, f in failures.items()}
            rows = retire(failed, current)
            members = [members[row] for row in rows]
            current = current.take(rows)
        previous, current = current, new
        stopped = accept(m, m * dt, current) if members else {}
    for row, member in enumerate(members):
        events[member] = StopEvent(StopKind.REACHED_T, steps * dt, 0.0)
        finals[member] = current.member(row)
    return [
        RunReport(
            scheme=scheme,
            node_count=node_count,
            dt=dt,
            t_end=t_end,
            event=event,
            final=final,
            records=rec,
            thresholds=thresholds,
        )
        for event, final, rec in zip(events, finals, records)
    ]


def _drift(t: float) -> float:
    return 2.0 + math.sin(math.pi * t)


def _drift_rate(t: float) -> float:
    return math.pi * math.cos(math.pi * t)


def manufactured_solution() -> CurveFunction:
    """Unit circle drifting along the radial axis; the exact solution used
    by the convergence harness."""
    return _circle(_drift, 1.0)


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
