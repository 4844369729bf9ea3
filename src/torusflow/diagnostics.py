"""Error norms and mesh quality measures for discrete curves.

The continuum error norms compare the polygon, read as a piecewise
linear function over the reference interval, against a smooth exact
curve at a given time.  Two sampling rules are offered: ``gauss5``
integrates the error with five Gauss points per element (essentially
exact for the smooth integrands here), while ``nodal`` applies the
trapezoidal rule to samples at the element endpoints, the convention
behind many published error tables.  The superconvergence distance,
by contrast, is a closed form: the H1 norm of the difference between
the polygon and the nodal interpolant of the exact curve is a quadratic
in the nodal gaps.

The sample points of each rule are fixed by the node count J.  For an
exact curve that is a circle, such as the drifting circle of the
convergence harness, cos and sin of 2 pi rho at those points are
tabulated once and cached read-only, keyed by (J, rule); each norm
scales and shifts that table instead of evaluating the curve, and its
numbers are bit for bit those of evaluating it.  Any other exact curve
is evaluated at the sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import nan, sqrt

import numpy as np

from .curves import TWO_PI, CurveFunction, PeriodicCurve, _Circle
from .quadrature import element_rho

__all__ = [
    "ErrorRecord",
    "l2_error",
    "h1_seminorm_error",
    "superconvergence_error",
    "mesh_ratio",
    "min_radial",
    "diameter",
]

ERROR_RULES = ("gauss5", "nodal")


@dataclass(frozen=True)
class ErrorRecord:
    """Diagnostics of one accepted step; nan marks untracked fields."""

    step: int
    time: float
    err_l2: float = nan
    err_h1: float = nan
    superconv_h1: float = nan
    mesh_ratio: float = nan
    min_radius: float = nan
    diameter: float = nan


def _previous(a: np.ndarray) -> np.ndarray:
    """Row j holds row (j - 1) % J of ``a``, built by slicing."""
    return np.concatenate((a[-1:], a[:-1]))


def _check_rule(rule: str):
    if rule not in ERROR_RULES:
        raise ValueError(f"unknown error rule {rule!r}, expected one of {ERROR_RULES}")


def _grid(J: int, rule: str) -> np.ndarray:
    """Sample points of ``rule`` on J nodes: the nodes j/J, or the five
    Gauss points of every element in element order."""
    if rule == "gauss5":
        return element_rho(J, 5)[0].ravel()
    return np.arange(J, dtype=float) / J


@lru_cache(maxsize=8)
def _trig(J: int, rule: str) -> np.ndarray:
    """(cos, sin) of 2 pi rho at the ``_grid`` points, shape (n, 2),
    read-only."""
    ang = TWO_PI * _grid(J, rule)
    table = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    table.setflags(write=False)
    return table


def _samples(exact: CurveFunction, J: int, rule: str, t: float, derivative: bool = False):
    """``exact`` at the ``_grid`` points of ``rule`` at time t, or with
    ``derivative`` its rho derivative there, shape (n, 2).  A circle is
    read off the ``_trig`` table with the operations of its ``value``
    and ``derivative``: center + radius cos, radius sin, and
    (2 pi radius) (-sin, cos)."""
    if not isinstance(exact, _Circle):
        rho = _grid(J, rule)
        return exact.d_rho(rho, t) if derivative else exact(rho, t)
    trig = _trig(J, rule)
    if derivative:
        scale = TWO_PI * exact.radius
        out = np.empty_like(trig)
        np.multiply(trig[:, 1], -scale, out=out[:, 0])  # (-scale) sin == scale (-sin)
        np.multiply(trig[:, 0], scale, out=out[:, 1])
        return out
    out = exact.radius * trig
    out[:, 0] += exact.center(t)
    return out


def l2_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0, rule: str = "gauss5"
) -> float:
    """L2 distance between the polygon and the exact curve at time t."""
    _check_rule(rule)
    J = curve.node_count
    h = curve.spacing
    if rule == "nodal":
        gap = _samples(exact, J, rule, t) - curve.positions
        return sqrt(h * float((gap * gap).sum()))
    _, s, w = element_rho(J, 5)
    vals = _samples(exact, J, rule, t).reshape(J, len(s), 2)
    left = _previous(curve.positions)
    poly = left[:, None, :] * (1.0 - s)[None, :, None] + curve.positions[:, None, :] * s[None, :, None]
    diff = poly - vals
    return sqrt(h * float(np.einsum("g,jgc->", w, diff * diff)))


def h1_seminorm_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0, rule: str = "gauss5"
) -> float:
    """H1 seminorm distance: derivative of the polygon vs the exact curve."""
    _check_rule(rule)
    J = curve.node_count
    h = curve.spacing
    slope = curve.edge_vectors() / h  # constant per element
    if rule == "nodal":
        dx = _samples(exact, J, rule, t, derivative=True)
        a = _previous(dx) - slope  # left endpoint of element j
        b = dx - slope  # right endpoint
        return sqrt(0.5 * h * float((a * a).sum() + (b * b).sum()))
    _, s, w = element_rho(J, 5)
    dvals = _samples(exact, J, rule, t, derivative=True).reshape(J, len(s), 2)
    diff = slope[:, None, :] - dvals
    return sqrt(h * float(np.einsum("g,jgc->", w, diff * diff)))


def superconvergence_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0
) -> float:
    """Full H1 distance between the polygon and the interpolant of exact.

    Both arguments of the difference are piecewise linear on the same
    grid, so the norm is evaluated in closed form from the nodal gaps.
    """
    J = curve.node_count
    h = curve.spacing
    gap = _samples(exact, J, "nodal", t) - curve.positions
    left = _previous(gap)
    l2_sq = h / 3.0 * float((left * left + left * gap + gap * gap).sum())
    jump = gap - left
    semi_sq = float((jump * jump).sum()) / h
    return sqrt(l2_sq + semi_sq)


def mesh_ratio(curve):
    """Longest edge over shortest edge; inf when an edge has length zero.

    For a ``CurveStack``, a list of one ratio per member.
    """
    longest = curve.edge_lengths().max(axis=-1).tolist()
    stack = curve.positions.ndim == 3
    ratios = [
        hi / lo if lo != 0.0 else float("inf")
        for hi, lo in zip(longest if stack else [longest], curve._bounds[1])
    ]
    return ratios if stack else ratios[0]


def min_radial(curve):
    """Smallest nodal distance to the rotation axis; for a ``CurveStack``,
    a list of one per member."""
    rmin = curve._bounds[0]
    return rmin if curve.positions.ndim == 3 else rmin[0]


def diameter(curve: PeriodicCurve) -> float:
    """Largest distance between two nodes, in O(J log J).

    The farthest pair is an antipodal pair of convex hull vertices.  The
    edge directions of a counterclockwise hull turn through 2 pi once, so
    one sorted search over them finds the vertex k antipodal to every
    edge.  Candidates are real node pairs, so rounding cannot overstate
    the diameter; the neighbours k - 1, k + 1 cover an off-by-one search
    and parallel edges.  A node polygon that turns one way at every node
    and winds once is its own hull and skips Qhull.
    """
    pts = curve.positions
    turn = _turns(pts)
    total = float(turn.sum())  # 2 pi times the winding number
    if (turn > 0.0).all() and total < 3.0 * np.pi:
        verts = pts
    elif (turn < 0.0).all() and total > -3.0 * np.pi:
        verts = pts[::-1]
        turn = _turns(verts)
    else:
        # imported on first use: convex node polygons need no hull
        from scipy.spatial import ConvexHull, QhullError

        try:
            verts = pts[ConvexHull(pts).vertices]  # counterclockwise
        except QhullError:
            # collinear or coincident nodes: the farthest pair joins
            # coordinate extremes
            ext = pts[[pts[:, 0].argmin(), pts[:, 0].argmax(), pts[:, 1].argmin(), pts[:, 1].argmax()]]
            diff = ext[:, None, :] - ext[None, :, :]
            return sqrt(float((diff * diff).sum(axis=2).max()))
        turn = _turns(verts)
    n = len(verts)
    # direction of edge i (vertex i to i + 1) relative to edge 0
    ang = np.maximum.accumulate(np.concatenate(([0.0], np.cumsum(turn[:-1]))))
    k = np.searchsorted(np.concatenate((ang, ang + 2.0 * np.pi)), ang + np.pi) % n
    # vertex i sits at entry i + 1 of the wrapped coordinates; edge i
    # pairs vertex i or i + 1 with vertex k - 1, k or k + 1
    x = np.concatenate((verts[-1:, 0], verts[:, 0], verts[:1, 0]))
    y = np.concatenate((verts[-1:, 1], verts[:, 1], verts[:1, 1]))
    far = k + np.array([[0], [1], [2]])
    xf, yf = x[far], y[far]
    best = 0.0
    for near in slice(1, -1), slice(2, None):
        dx, dy = x[near] - xf, y[near] - yf
        best = max(best, float((dx * dx + dy * dy).max()))
    return sqrt(best)


def _turns(verts: np.ndarray) -> np.ndarray:
    """Signed turning angle from edge i to edge i + 1 of a closed
    polygon, edge i running from vertex i to vertex i + 1."""
    x, y = verts[:, 0], verts[:, 1]
    ex = np.diff(x, append=x[0])
    ey = np.diff(y, append=y[0])
    nx = np.concatenate((ex[1:], ex[:1]))
    ny = np.concatenate((ey[1:], ey[:1]))
    return np.arctan2(ex * ny - ey * nx, ex * nx + ey * ny)
