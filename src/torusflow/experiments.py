"""Reference experiments: convergence tables, singularity classification
and the critical-radius search.

The convergence harness drives the forced benchmark problem (drifting
unit circle) over a ladder of resolutions and reports error norms
maximized over eight evenly spaced checkpoint times, with observed
orders.  The classification and bisection experiments evolve unforced
torus circles and read off which singularity ends the flow: small
circles shrink to a point (curve_collapse), large ones close the hole
(axis_touch), and the bisection brackets the radius separating the two
regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

from .curves import CurveFunction, ellipse_curve, rose_curve, spiral_curve, torus_circle
from .stepping import (
    EventThresholds,
    PeriodicCurve,
    RunReport,
    SchemeKind,
    StopEvent,
    StopKind,
    _require_positive,
    _step_count,
    manufactured_forcing,
    manufactured_solution,
    run,
)

__all__ = [
    "ConvergenceRow",
    "ConvergenceStudy",
    "run_convergence",
    "classify_radius",
    "BisectionResult",
    "bisect_critical_radius",
    "scenario_curve",
    "Snapshot",
    "ScenarioResult",
    "run_scenario",
    "TABLE_ERROR_RULE",
    "CHECKPOINT_COUNT",
]

# sampling rule behind the published error tables (see decisions ledger):
# trapezoidal/nodal sampling, not full Gauss integration
TABLE_ERROR_RULE = "nodal"

# the tables maximize errors over this many evenly spaced checkpoint
# times rather than over every step (see decisions ledger)
CHECKPOINT_COUNT = 8


def _checkpoint_steps(steps: int) -> list[int]:
    """Step indices nearest the checkpoint times k * t_end / CHECKPOINT_COUNT."""
    picked = {
        min(max(int(round(k * steps / CHECKPOINT_COUNT)), 1), steps)
        for k in range(1, CHECKPOINT_COUNT + 1)
    }
    return sorted(picked)


@dataclass(frozen=True)
class ConvergenceRow:
    """One resolution level: checkpoint-maximized errors and observed orders.

    Orders compare against the previous row and are None on the first.
    """

    resolution: int
    err_l2: float
    order_l2: Optional[float]
    err_h1: float
    order_h1: Optional[float]


@dataclass(frozen=True)
class ConvergenceStudy:
    scheme: SchemeKind
    axis: str
    rows: list[ConvergenceRow]
    superconv_h1: list[float]  # max-over-time interpolant distance per level


def _order(err_prev: float, err_cur: float, res_prev: int, res_cur: int) -> float:
    return math.log(err_prev / err_cur) / math.log(res_cur / res_prev)


def run_convergence(
    scheme: SchemeKind,
    axis: str,
    levels: Sequence[int],
    t_end: float = 1.0,
    fixed_steps: int = 10000,
    fixed_nodes: int = 50000,
    error_rule: str = TABLE_ERROR_RULE,
    progress: Optional[Callable[[str], None]] = None,
) -> ConvergenceStudy:
    """Error ladder for the forced benchmark problem.

    ``axis='spatial'`` varies the node count at ``fixed_steps`` time
    steps; ``axis='temporal'`` varies the step count at ``fixed_nodes``
    nodes.  Each row maximizes the error norms over the eight
    checkpoint times k * t_end / 8.  Any run that stops before t_end
    invalidates the table and raises.
    """
    scheme = SchemeKind(scheme)
    if axis not in ("spatial", "temporal"):
        raise ValueError(f"axis must be 'spatial' or 'temporal', got {axis!r}")
    levels = [int(v) for v in levels]
    if not levels:
        raise ValueError("need at least one level")
    if any(v < 3 for v in levels) or sorted(levels) != levels:
        raise ValueError("levels must be increasing and >= 3")
    _require_positive("t_end", t_end)
    for name, value, least in (("fixed_steps", fixed_steps, 1), ("fixed_nodes", fixed_nodes, 3)):
        if not (isinstance(value, Integral) and value >= least):
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")

    exact = manufactured_solution()
    forcing = manufactured_forcing()
    rows: list[ConvergenceRow] = []
    superconv: list[float] = []
    for level in levels:
        if axis == "spatial":
            node_count, steps = level, fixed_steps
        else:
            node_count, steps = fixed_nodes, level
        dt = t_end / steps
        if progress is not None:
            progress(f"{scheme.value} {axis} level {level}: J={node_count} steps={steps}")
        report = run(
            exact,
            scheme,
            node_count,
            dt,
            t_end,
            source=forcing,
            exact=exact,
            track_diameter=False,
            error_rule=error_rule,
        )
        if report.event.kind is not StopKind.REACHED_T:
            raise RuntimeError(
                f"convergence run at level {level} stopped early: "
                f"{report.event.kind.value} at t = {report.event.time:g}"
            )
        picked = [report.records[m] for m in _checkpoint_steps(steps)]
        err_l2 = max(rec.err_l2 for rec in picked)
        err_h1 = max(rec.err_h1 for rec in picked)
        superconv.append(max(rec.superconv_h1 for rec in picked))
        if rows:
            prev = rows[-1]
            rows.append(
                ConvergenceRow(
                    level,
                    err_l2,
                    _order(prev.err_l2, err_l2, prev.resolution, level),
                    err_h1,
                    _order(prev.err_h1, err_h1, prev.resolution, level),
                )
            )
        else:
            rows.append(ConvergenceRow(level, err_l2, None, err_h1, None))
    return ConvergenceStudy(scheme=scheme, axis=axis, rows=rows, superconv_h1=superconv)


def _round_t_end(t_max: float, dt: float) -> float:
    steps = max(1, int(round(t_max / dt)))
    return steps * dt


def classify_radius(
    radius: float,
    scheme: SchemeKind,
    node_count: int = 512,
    dt: float = 1e-4,
    t_max: float = 0.5,
    thresholds: Optional[EventThresholds] = None,
) -> StopEvent:
    """Evolve an unforced torus circle and report its terminal singularity.

    Returns the axis_touch or curve_collapse event; raises if the run
    reaches t_max without one, or dies of a non-geometric failure.
    """
    _require_positive("dt", dt)
    _require_positive("t_max", t_max)
    report = run(
        torus_circle(radius),
        scheme,
        node_count,
        dt,
        _round_t_end(t_max, dt),
        thresholds=thresholds,
        track_diameter=False,
    )
    kind = report.event.kind
    if kind in (StopKind.AXIS_TOUCH, StopKind.CURVE_COLLAPSE):
        return report.event
    if kind is StopKind.REACHED_T:
        raise RuntimeError(
            f"radius {radius:g} reached t = {t_max:g} without a singularity; "
            "raise t_max or tighten the bracket"
        )
    raise RuntimeError(
        f"radius {radius:g} failed with {kind.value} at t = {report.event.time:g}"
    )


@dataclass(frozen=True)
class BisectionResult:
    """Final bracket [lower, upper] and the full classification log."""

    lower: float
    upper: float
    probes: list[tuple[float, StopEvent]]


def bisect_critical_radius(
    lower: float,
    upper: float,
    tol: float,
    scheme: SchemeKind,
    node_count: int = 512,
    dt: float = 1e-4,
    t_max: float = 0.5,
    thresholds: Optional[EventThresholds] = None,
) -> BisectionResult:
    """Bracket the radius separating collapse from axis contact.

    The lower endpoint must collapse and the upper must touch the axis;
    both are classified up front and kept in the log.  Bisection then
    halves the bracket until it is no wider than tol.
    """
    if not 0.0 < lower < upper < 1.0:
        raise ValueError("need 0 < lower < upper < 1")
    _require_positive("tol", tol)

    def classify(r: float) -> StopEvent:
        event = classify_radius(r, scheme, node_count, dt, t_max, thresholds)
        probes.append((r, event))
        return event

    probes: list[tuple[float, StopEvent]] = []
    ev = classify(lower)
    if ev.kind is not StopKind.CURVE_COLLAPSE:
        raise ValueError(
            f"lower radius {lower:g} does not collapse ({ev.kind.value}); "
            "bracket must straddle the critical radius"
        )
    ev = classify(upper)
    if ev.kind is not StopKind.AXIS_TOUCH:
        raise ValueError(
            f"upper radius {upper:g} does not touch the axis ({ev.kind.value}); "
            "bracket must straddle the critical radius"
        )
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        if classify(mid).kind is StopKind.AXIS_TOUCH:
            upper = mid
        else:
            lower = mid
    return BisectionResult(lower=lower, upper=upper, probes=probes)


def scenario_curve(name: str) -> CurveFunction:
    """Parse a scenario label: 'torus:R', 'ellipse', 'rose', 'spiral[:layers]'."""
    base, _, arg = name.partition(":")
    if base == "torus":
        if not arg:
            raise ValueError("torus scenario needs a radius, e.g. 'torus:0.7'")
        return torus_circle(_scenario_param(name, "radius", float, arg))
    if base == "ellipse":
        if arg:
            raise ValueError("ellipse scenario takes no parameter")
        return ellipse_curve()
    if base == "rose":
        if arg:
            raise ValueError("rose scenario takes no parameter")
        return rose_curve()
    if base == "spiral":
        if not arg:
            return spiral_curve()
        return spiral_curve(layers=_scenario_param(name, "layers", int, arg))
    raise ValueError(f"unknown scenario {name!r}")


def _scenario_param(name: str, param: str, kind: type, text: str):
    """``text`` read as ``kind``; a failure names the scenario and parameter."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(
            f"scenario {name!r}: {param} is not a valid {kind.__name__}: {text!r}"
        ) from None


@dataclass(frozen=True)
class Snapshot:
    requested_time: float
    time: float
    step: int
    curve: PeriodicCurve


@dataclass(frozen=True)
class ScenarioResult:
    report: RunReport
    snapshots: list[Snapshot]


def run_scenario(
    name: str,
    scheme: SchemeKind,
    node_count: int,
    dt: float,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    thresholds: Optional[EventThresholds] = None,
) -> ScenarioResult:
    """Evolve a named scenario, capturing the curve at the grid times
    nearest the requested snapshot times.

    An early stopping event truncates the snapshot list; the event
    itself is recorded in the report.
    """
    f = scenario_curve(name)
    _step_count(t_end, dt)  # names a bad dt or t_end before any work
    wanted: dict[int, float] = {}
    for t_req in snapshot_times:
        if not math.isfinite(t_req):
            raise ValueError(f"snapshot_times must be finite, got {t_req!r}")
        # clamped before dividing, so a huge time cannot overflow
        idx = int(round(min(max(t_req, 0.0), t_end) / dt))
        wanted.setdefault(idx, float(t_req))

    snapshots: list[Snapshot] = []

    def observer(step: int, t: float, curve: PeriodicCurve) -> None:
        if step in wanted:
            snapshots.append(Snapshot(wanted[step], t, step, curve))

    report = run(
        f,
        scheme,
        node_count,
        dt,
        t_end,
        thresholds=thresholds,
        observers=(observer,),
    )
    return ScenarioResult(report=report, snapshots=snapshots)
