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

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .curves import CurveFunction, ellipse_curve, rose_curve, spiral_curve, torus_circle
from .curves import _count, _finite, _real, _sequence
from .stepping import (
    PeriodicCurve,
    RunReport,
    SchemeKind,
    StopEvent,
    StopKind,
    _nearest_step_count,
    _run_stack,
    _scheme,
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
]

# sampling rule behind the published error tables (see decisions ledger):
# trapezoidal/nodal sampling, not full Gauss integration
TABLE_ERROR_RULE = "nodal"

# the tables maximize errors over this many evenly spaced checkpoint
# times rather than over every step (see decisions ledger)
CHECKPOINT_COUNT = 8

_log = logging.getLogger("torusflow")


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
) -> ConvergenceStudy:
    """Error ladder for the forced benchmark problem.

    ``axis='spatial'`` varies the node count at ``fixed_steps`` time
    steps; ``axis='temporal'`` varies the step count at ``fixed_nodes``
    nodes.  Each row maximizes the error norms over the eight
    checkpoint times k * t_end / 8.  Any run that stops before t_end
    invalidates the table and raises.  Each level is announced on the
    ``torusflow`` logger at INFO level.
    """
    scheme = _scheme(scheme)
    if not isinstance(axis, str) or axis not in ("spatial", "temporal"):
        raise ValueError(f"axis must be 'spatial' or 'temporal', got {axis!r}")
    levels = [_count("levels", v, 3) for v in _sequence("levels", levels, "counts")]
    if not levels:
        raise ValueError("need at least one level")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing, got {levels!r}")
    _finite("t_end", t_end)
    fixed_steps = _count("fixed_steps", fixed_steps, 1)
    fixed_nodes = _count("fixed_nodes", fixed_nodes, 3)

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
        _log.info("%s %s level %s: J=%s steps=%s", scheme.value, axis, level, node_count, steps)
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
        prev = rows[-1] if rows else None
        rows.append(
            ConvergenceRow(
                level,
                err_l2,
                _order(prev.err_l2, err_l2, prev.resolution, level) if prev else None,
                err_h1,
                _order(prev.err_h1, err_h1, prev.resolution, level) if prev else None,
            )
        )
    return ConvergenceStudy(scheme=scheme, axis=axis, rows=rows, superconv_h1=superconv)


def _classify(
    radii: Sequence[float],
    scheme: SchemeKind,
    node_count: int,
    dt: float,
    t_max: float,
) -> list[StopEvent]:
    """The stop event of each radius's unforced torus circle under the default
    ``EventThresholds``, all advanced as one stack; ``_singular`` judges it."""
    t_end = max(1, _nearest_step_count("t_max", t_max, dt, positive=True)) * dt
    circles = [torus_circle(radius) for radius in radii]
    reports = _run_stack(circles, scheme, node_count, dt, t_end, keep_records=False)
    return [report.event for report in reports]


_SINGULAR = (StopKind.AXIS_TOUCH, StopKind.CURVE_COLLAPSE)


def _singular(radius: float, event: StopEvent) -> StopEvent:
    """``event`` if it is an axis_touch or curve_collapse; otherwise raise
    the RuntimeError that names ``radius`` and how its run ended."""
    if event.kind in _SINGULAR:
        return event
    if event.kind is StopKind.REACHED_T:
        raise RuntimeError(
            f"radius {radius:g} reached t = {event.time:g} without a singularity; "
            "raise t_max or tighten the bracket"
        )
    raise RuntimeError(f"radius {radius:g} failed with {event.kind.value} at t = {event.time:g}")


def classify_radius(
    radius: float,
    scheme: SchemeKind,
    node_count: int = 512,
    dt: float = 1e-4,
    t_max: float = 0.5,
) -> StopEvent:
    """Evolve an unforced torus circle and report its terminal singularity.

    Returns the axis_touch or curve_collapse event; raises if the run
    reaches t_max without one, or dies of a non-geometric failure.
    """
    (event,) = _classify([radius], scheme, node_count, dt, t_max)
    return _singular(radius, event)


@dataclass(frozen=True)
class BisectionResult:
    """Final bracket [lower, upper] and the full classification log."""

    lower: float
    upper: float
    probes: list[tuple[float, StopEvent]]


# Bisection levels classified per round: the bracket's midpoint and the
# midpoints of both halves, one of which plain bisection visits next.
ROUND_DEPTH = 2


def _round_radii(lower: float, upper: float, tol: float, depth: int) -> list[float]:
    """Every radius plain bisection of [lower, upper] to tol may visit in
    its next ``depth`` steps: the midpoint, then those of both halves."""
    if depth == 0 or not upper - lower > tol:
        return []
    mid = 0.5 * (lower + upper)
    return (
        [mid]
        + _round_radii(lower, mid, tol, depth - 1)
        + _round_radii(mid, upper, tol, depth - 1)
    )


def bisect_critical_radius(
    lower: float,
    upper: float,
    tol: float,
    scheme: SchemeKind,
    node_count: int = 512,
    dt: float = 1e-4,
    t_max: float = 0.5,
) -> BisectionResult:
    """Bracket the radius separating collapse from axis contact.

    The lower endpoint must collapse and the upper must touch the axis.
    Bisection then halves the bracket until it is no wider than tol.
    Each round classifies, as one stack, the radii the next
    ``ROUND_DEPTH`` bisection steps may visit (the first round adds the
    endpoints), so the bracket and every radius plain bisection probes
    are the same.  Every stop event is judged as ``classify_radius``
    judges it: a radius plain bisection visits that ends without a
    singularity raises its RuntimeError, and one it would skip is only
    left out of the log.  The log lists the endpoints first, then every
    other radius classified as singular, including skipped ones.
    """
    _real("lower", lower)
    _real("upper", upper)
    if not 0.0 < lower < upper < 1.0:
        raise ValueError("need 0 < lower < upper < 1")
    _finite("tol", tol)
    if tol <= 4.0 * math.ulp(upper):  # else a midpoint may round onto an endpoint
        raise ValueError(f"tol must exceed 4 ulp of upper ({4.0 * math.ulp(upper):.3g}), got {tol!r}")
    results: dict[float, StopEvent] = {}  # each classified radius's stop event

    def classify_round(radii: list[float]) -> None:
        results.update(zip(radii, _classify(radii, scheme, node_count, dt, t_max)))

    def event(radius: float) -> StopEvent:
        return _singular(radius, results[radius])

    classify_round([lower, upper] + _round_radii(lower, upper, tol, ROUND_DEPTH))
    for end, radius, kind, does in (
        ("lower", lower, StopKind.CURVE_COLLAPSE, "collapse"),
        ("upper", upper, StopKind.AXIS_TOUCH, "touch the axis"),
    ):
        ev = event(radius)
        if ev.kind is not kind:
            raise ValueError(
                f"{end} radius {radius:g} does not {does} ({ev.kind.value}); "
                "bracket must straddle the critical radius"
            )
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        if mid not in results:
            classify_round(_round_radii(lower, upper, tol, ROUND_DEPTH))
        if event(mid).kind is StopKind.AXIS_TOUCH:
            upper = mid
        else:
            lower = mid
    probes = [(radius, ev) for radius, ev in results.items() if ev.kind in _SINGULAR]
    return BisectionResult(lower=lower, upper=upper, probes=probes)


def scenario_curve(name: str) -> CurveFunction:
    """Parse a scenario label: 'torus:R', 'ellipse', 'rose', 'spiral[:layers]'."""
    if not isinstance(name, str):
        raise TypeError(f"scenario name must be a str, got {type(name).__name__}")
    base, colon, arg = name.partition(":")
    if base == "torus":
        if not arg:
            raise ValueError("torus scenario needs a radius, e.g. 'torus:0.7'")
        return torus_circle(_scenario_param(name, "radius", float, arg))
    if base in ("ellipse", "rose"):
        if colon:
            raise ValueError(f"{base} scenario takes no parameter")
        return ellipse_curve() if base == "ellipse" else rose_curve()
    if base == "spiral":
        return spiral_curve(_scenario_param(name, "layers", int, arg)) if colon else spiral_curve()
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
) -> ScenarioResult:
    """Evolve a named scenario, capturing the curve at the grid times
    nearest the requested snapshot times.

    The run uses the default ``EventThresholds``.  An early stopping
    event truncates the snapshot list; the event itself is in the report.
    """
    f = scenario_curve(name)
    _step_count(t_end, dt)  # names a bad dt or t_end before any work
    wanted: dict[int, float] = {}
    for t_req in _sequence("snapshot_times", snapshot_times, "times"):
        _real("snapshot_times", t_req, "finite")
        # clamped before dividing, so a huge time cannot overflow
        idx = int(round(min(max(t_req, 0.0), t_end) / dt))
        wanted.setdefault(idx, float(t_req))

    snapshots: list[Snapshot] = []

    def observer(step: int, t: float, curve: PeriodicCurve) -> None:
        if step in wanted:
            snapshots.append(Snapshot(wanted[step], t, step, curve))

    report = run(f, scheme, node_count, dt, t_end, observers=(observer,))
    return ScenarioResult(report=report, snapshots=snapshots)
