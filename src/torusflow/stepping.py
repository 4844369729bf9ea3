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

A step is one pass of one function, ``_advance``: the coefficient
curve's element data, the admissibility check (three reductions over
the whole stack; members are sorted only when one fails), the bands of
the step matrix and of the right side, the solve and the new states'
edges and bounds, under one np.errstate.  The source loads are taken
before it, so that a forcing's own floating-point warnings still show,
the old level's first: a Crank-Nicolson step is then handed the load
that the step before it left on the field for that level
(``assembly.source_load``), and computes only its new level's.

``run`` drives a scheme from t = 0 to a final time on one time grid: it
passes step m both of its levels, t_{m-1} = (m - 1) dt and t_m = m dt,
the time it records, so each level's source is evaluated at the time
recorded for it.  It records diagnostics each step and stops early
with a typed event when the curve touches the axis, collapses to a
point, degenerates an element, or the linear solver fails its residual
audit.  The kernel advances a stack of curves on one grid at once,
each member exactly as it would go alone; ``run`` is its one-curve
case.  Each member leaves the stack through one path, on its last
accepted curve if its step fails.
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
    CyclicTridiagonal,
    _banded,
    _element_bands,
    source_load,
    # unused by the kernel; bound for SPAN_TARGETS in perfbench/tracing.py
    radial_direction_load,
    weighted_mass_matrix,
    weighted_stiffness_matrix,
)
from .curves import (
    TWO_PI,
    CurveFunction,
    CurveStack,
    PeriodicCurve,
    _built,
    _circle,
    _count,
    _elements,
    _finite,
    _sequence,
    interpolate,
)
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


def _scheme(scheme) -> SchemeKind:
    """``scheme``, a SchemeKind or its value, as a SchemeKind; else a
    ValueError that names the schemes (an array's == raises one too)."""
    try:
        return SchemeKind(scheme)
    except (TypeError, ValueError):
        names = ", ".join(kind.value for kind in SchemeKind)
        raise ValueError(f"scheme must be one of {names}, got {scheme!r}") from None


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
        for name in ("current", "previous"):
            curve = getattr(self, name)
            if not (isinstance(curve, PeriodicCurve) or name == "previous" and curve is None):
                raise TypeError(f"{name} must be a PeriodicCurve, got {type(curve).__name__}")
        _finite("time", self.time, positive=False)
        _finite("dt", self.dt)
        if self.previous is not None and (
            self.previous.node_count != self.current.node_count
        ):
            raise ValueError("current and previous curves must share a grid")


@dataclass(frozen=True)
class RunReport:
    """Outcome of a run: stopping event, final curve, per-step records
    and the event thresholds the run used; an unhashable value whose curve
    and records compare by value, nan equal to nan (``curves._ByValue``)."""

    scheme: SchemeKind
    node_count: int
    dt: float
    t_end: float
    event: StopEvent
    final: PeriodicCurve
    records: list[ErrorRecord] = field(default_factory=list)
    thresholds: EventThresholds = field(default_factory=EventThresholds)


def _check_weights(r, hw, pairs, t_new: float) -> dict[int, StepFailure]:
    """Pre-flag the members whose coefficient curve left the admissible
    set: not finite, r <= 0 or a zero-length edge.  It reads the nodal
    radii r and the assembler's squared edges hw and their pair sums,
    (B, J) each; the squares read inf beyond about 1e154 and 0 below
    about 1e-162: such a member fails as not finite or as degenerate."""
    # a node that is not finite leaves inf or nan in its elements' data,
    # and nan fails every comparison: the whole stack passes, or its rows
    # are sorted.  ufunc reductions skip the Python layer of ndarray.min
    least, largest = np.minimum.reduce, np.maximum.reduce
    if least(r, None) > 0.0 and least(hw, None) > 0.0 and math.isfinite(largest(pairs, None)):
        return {}
    failures = {}
    for row, (rmin, e, p) in enumerate(zip(
        r.min(axis=-1).tolist(), hw.min(axis=-1).tolist(), pairs.max(axis=-1).tolist()
    )):
        if not math.isfinite(p):
            kind, metric, what = StopKind.SOLVER_FAILURE, math.inf, "is not finite"
        elif rmin <= 0.0:
            kind, metric, what = StopKind.AXIS_TOUCH, rmin, "left r > 0"
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
    t_new: float,
) -> tuple[CurveStack, dict[int, StepFailure]]:
    """One step of the scheme ``kind``, read off its row of ``_SCHEMES``,
    for a stack of B curves on one grid, from the level at ``time`` to
    the one at ``t_new``, the caller's ``time + dt``.

    Every check, assembly, solve and event test runs once for the whole
    stack and each member's numbers are the ones it gets alone.  Returns
    the new curves of the members that passed, in stack order, and the
    failure of each member (by row) that did not.
    """
    (e0, e1), c, (h0, h1), theta, (s0, s1) = _SCHEMES[kind]
    # every array below is stored component by component, (2, B, J)
    x = current._components
    if e1 == 0.0:
        # a one-step scheme gives X^{m-1} zero weight everywhere
        x_prev = weight = x
    elif previous is None:
        raise ValueError(f"{kind.value}_step needs a previous curve; bootstrap with bdf1_step")
    else:
        x_prev = previous._components
        weight = e0 * x + e1 * x_prev
    if source is not None:
        J = x.shape[2]
        if s0:
            # the old level first: a CN step is then handed the load its
            # predecessor computed for this level (see ``source_load``)
            load = source_load(source, J, time)
            load *= s0
            load += s1 * source_load(source, J, t_new)
        else:
            load = source_load(source, J, t_new)  # s1 = 1 in these rows
    # squares of huge or tiny edges, and a solution that is not finite,
    # end as a typed failure, not as a floating-point warning
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        data = _elements(weight)
        failures = _check_weights(weight[0], *data[1:], t_new)
        rows = range(x.shape[1])
        if failures:
            rows = [row for row in rows if row not in failures]
            if not rows:
                return current.take([]), failures
            x, x_prev, weight = (a.take(rows, axis=1) for a in (x, x_prev, weight))
            data = tuple(a.take(rows, axis=0) for a in data)
        # the step matrix, and the bands of the right side's operator
        # (1 / dt) M - (1 - theta) K: from the same pass when it mirrors
        # the matrix (c = 1, theta = 1/2, as in Crank-Nicolson)
        bands, right = _element_bands(weight[0], data, c / dt, theta)
        if (1.0 / dt, theta - 1.0) != (c / dt, -theta):
            right = _element_bands(weight[0], data, 1.0 / dt, theta - 1.0)[0]
        matrix = CyclicTridiagonal._owned(*bands, True)
        # rows with theta != 1 have (h0, h1) = (1, 0), so M y / dt with
        # y = h0 X^m + h1 X^{m-1}, minus (1 - theta) K X^m, is one product
        rhs = _banded(*right, x if (h0, h1) == (1.0, 0.0) else h0 * x + h1 * x_prev)
        rhs[0] -= 0.5 * data[2]  # the radial load (L, 0)
        del weight, data, bands, right  # no assembly array is held across the solve
        if source is not None:
            rhs += load.T[:, None]
            del load
        report = solve_cyclic(matrix, rhs.transpose(1, 2, 0))
        # the new states' edges and bounds, from one wrap of the solution
        new = CurveStack._stepped(report.solution.transpose(2, 0, 1))
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
    previous = None if state.previous is None else CurveStack(state.previous._components[:, None])
    current = CurveStack(state.current._components[:, None])
    new, failures = _advance(kind, current, previous, state.time, state.dt, source, state.time + state.dt)
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
    rmax = np.maximum.reduce(curves._components[0], -1).tolist()
    axis, collapse = thresholds.axis, thresholds.collapse
    edge_floor = thresholds.edge_fraction * curves.spacing
    events = {}
    for row, (low, high, shortest) in enumerate(zip(rmin, rmax, emin)):
        if low < axis:
            events[row] = StopEvent(StopKind.AXIS_TOUCH, t, low)
            continue
        # the diameter is at least the radial span
        if high - low < collapse:
            diam = diameter(curves.member(row))
            if diam < collapse:
                events[row] = StopEvent(StopKind.CURVE_COLLAPSE, t, diam)
                continue
        if shortest < edge_floor:
            events[row] = StopEvent(StopKind.ELEMENT_DEGENERATE, t, shortest)
    return events


def _record(
    curve: PeriodicCurve,
    step: int,
    t: float,
    exact: Optional[CurveFunction],
    rule: str,
    ratio: float,
    rmin: float,
    track_diameter: bool,
) -> ErrorRecord:
    """The record of one accepted curve, a member of the kernel's stack,
    given its mesh ratio and smallest radius."""
    if exact is not None:
        e_l2 = l2_error(curve, exact, t, rule)
        e_h1 = h1_seminorm_error(curve, exact, t, rule)
        e_sup = superconvergence_error(curve, exact, t)
    else:
        e_l2 = e_h1 = e_sup = nan
    return _built(
        ErrorRecord, step=step, time=t, err_l2=e_l2, err_h1=e_h1, superconv_h1=e_sup,
        mesh_ratio=ratio, min_radius=rmin, diameter=diameter(curve) if track_diameter else nan,
    )


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
    and final curve its own run gives.  One helper, ``end``, retires
    members: a failed step ends on the last accepted curve, an event or
    t_end on the new one.  Observers see every member's curves.  With
    ``keep_records=False`` every report's records are empty; the stop
    events do not read records, so they are the same either way.
    """
    _check_rule(error_rule)
    node_count = _count("node_count", node_count, 3)
    scheme = _scheme(scheme)
    steps = _step_count(t_end, dt)
    observers = _sequence("observers", observers, "callables")
    for obs in observers:
        if not callable(obs):
            raise TypeError(f"observers must be callables, got {type(obs).__name__}")
    if not (exact is None or isinstance(exact, CurveFunction)):
        raise TypeError(f"exact must be a CurveFunction or None, got {type(exact).__name__}")
    starts = []
    for initial in initials:
        if isinstance(initial, PeriodicCurve):
            if initial.node_count != node_count:
                raise ValueError("initial curve node count disagrees with node_count")
            starts.append(initial)
        elif isinstance(initial, CurveFunction):
            starts.append(interpolate(initial, node_count, 0.0))
        else:
            raise TypeError(
                f"initial must be a PeriodicCurve or a CurveFunction, got {type(initial).__name__}"
            )
    thresholds = thresholds if thresholds is not None else EventThresholds()
    if not isinstance(thresholds, EventThresholds):
        raise TypeError(f"thresholds must be an EventThresholds, got {type(thresholds).__name__}")

    records: list[list[ErrorRecord]] = [[] for _ in starts]
    outcomes: list[Optional[tuple[StopEvent, PeriodicCurve]]] = [None] * len(starts)

    def accept(idx: int, t: float, curves: CurveStack) -> dict[int, StopEvent]:
        """Show every member's new state to the observers and record it;
        return the events it triggers."""
        if keep_records:
            ratios, rmin = mesh_ratio(curves), min_radial(curves)
        for row, member in enumerate(members if keep_records or observers else ()):
            curve = curves.member(row)
            for obs in observers:
                obs(idx, t, curve)
            if keep_records:
                records[member].append(
                    _record(curve, idx, t, exact, error_rule, ratios[row], rmin[row], track_diameter)
                )
        return _state_events(curves, t, thresholds)

    def end(ended: dict[int, StopEvent]) -> None:
        """End the runs of the ``ended`` rows, each with its event on its
        curve in ``current``, and drop those rows from the stack."""
        nonlocal members, current, previous
        if not ended:
            return
        for row, event in ended.items():
            outcomes[members[row]] = (event, current.member(row))
        rows = [row for row in range(len(members)) if row not in ended]
        members = [members[row] for row in rows]
        current = current.take(rows)
        previous = None if previous is None else previous.take(rows)

    members = list(range(len(starts)))  # the member in each stack row
    # stored component by component, (2, B, J), as the solver returns
    # its solutions: every elementwise step then runs along whole rows
    current = CurveStack(np.stack([curve._components for curve in starts], axis=1))
    previous = None
    end(accept(0, 0.0, current))
    for m in range(1, steps + 1):
        if not members:
            break
        kind = SchemeKind.BDF1 if previous is None else scheme
        new, failures = _STEPPERS[kind](current, previous, (m - 1) * dt, dt, source, m * dt)
        if failures:
            # a failed member ends on its last accepted curve
            end({row: StopEvent(f.kind, m * dt, f.metric) for row, f in failures.items()})
        previous, current = current, new
        if members:
            end(accept(m, m * dt, current))
    end(dict.fromkeys(range(len(members)), StopEvent(StopKind.REACHED_T, steps * dt, 0.0)))
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
        for (event, final), rec in zip(outcomes, records)
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
    # each entry scaled as a Python float: the bits of scaling the array
    return np.array([FOUR_PI_SQ * (d * dp + 1.0), FOUR_PI_SQ * (d + dp), FOUR_PI_SQ, FOUR_PI_SQ * d])


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
