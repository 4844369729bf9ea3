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

The sample points of each rule are fixed by the node count J.  The
norms read an exact curve through two routines: ``_samples``, its values
at the points, and ``_slopes``, its rho derivative there with the last
row repeated in front, so that its rows also sit at each point's left
neighbour.  A circle, such as the drifting circle of the convergence
harness, is read off its own tables, computed once per grid and radius
and cached read-only, keyed by (J, rule, radius): a copy of its values
(radius cos, radius sin) of 2 pi rho shifted by its center at t, and
its derivative table as it is, bit for bit what evaluating the circle
gives.  Any other exact curve is evaluated at the points.

A run records each accepted state on a read-only view of the step
kernel's row (``CurveStack.member``), without a copy.  The nodal L2
error and the superconvergence distance share one nodal gap, kept on
the curve for the last (exact, t) asked.  Every temporary the norms sum
is C-ordered, so a view sums in the order of a copy, bit for bit.

The diameter searches the convex hull of the nodes, which a prefiltered
monotone chain finds when the node polygon is not its own hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import frexp, nan, sqrt

import numpy as np

from .curves import TWO_PI, CurveFunction, PeriodicCurve, _ByValue, _Circle
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


@dataclass(frozen=True, eq=False)
class ErrorRecord(_ByValue):
    """Diagnostics of one accepted step; nan marks untracked fields and
    equals nan.  Records are unhashable values (``curves._ByValue``)."""

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
def _circle_tables(J: int, rule: str, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """A circle of ``radius`` about the origin at the ``_grid`` points of
    ``rule``, two read-only tables: its values (radius cos, radius sin)
    of 2 pi rho, shape (n, 2), and its rho derivative
    (2 pi radius) (-sin, cos), shape (n + 1, 2) with row 0 a copy of row
    n, so that rows 1: sit at the points and rows :-1 at their left
    neighbours.  Each entry is the product a ``_Circle``'s ``value`` and
    ``derivative`` form, bit for bit."""
    ang = TWO_PI * _grid(J, rule)
    cos, sin = np.cos(ang), np.sin(ang)
    values = np.stack([radius * cos, radius * sin], axis=-1)
    slopes = (TWO_PI * radius) * np.stack([-sin, cos], axis=-1)
    slopes = np.concatenate((slopes[-1:], slopes))
    values.setflags(write=False)
    slopes.setflags(write=False)
    return values, slopes


def _samples(exact: CurveFunction, J: int, rule: str, t: float) -> np.ndarray:
    """``exact`` at the ``_grid`` points of ``rule`` at time t, fresh and C-ordered
    (n, 2); a circle's is a copy of its ``_circle_tables`` values plus center(t) in r."""
    if not isinstance(exact, _Circle):
        return np.array(exact(_grid(J, rule), t), order="C")
    out = _circle_tables(J, rule, exact.radius)[0].copy()
    out[:, 0] += exact.center(t)
    return out


def _slopes(exact: CurveFunction, J: int, rule: str, t: float) -> np.ndarray:
    """``exact``'s rho derivative at the ``_grid`` points of ``rule`` at time
    t, C-ordered (n + 1, 2), row 0 a copy of row n, so rows 1: sit at the
    points and rows :-1 at their left neighbours: a circle's read-only
    ``_circle_tables`` entry, any other curve's fresh ``d_rho`` with that row."""
    if isinstance(exact, _Circle):
        return _circle_tables(J, rule, exact.radius)[1]
    slopes = exact.d_rho(_grid(J, rule), t)
    return np.concatenate((slopes[-1:], slopes))


# The norms below sum C-ordered temporaries only: a member of a curve
# stack views the stack, strides (8, 8 B J), and a temporary that took
# its layout would be summed in another order.  np.add.reduce(x, None)
# is the pairwise sum of ndarray.sum without its Python layer.
_sum = np.add.reduce


def _nodal_gap(curve: PeriodicCurve, exact: CurveFunction, t: float) -> np.ndarray:
    """exact(j / J, t) minus node j, (J, 2), C-ordered and read-only,
    kept on the curve for the last (exact, t) asked, so that
    ``l2_error`` and ``superconvergence_error`` of one record share it."""
    held = vars(curve).get("_gap")
    if held is None or held[0] is not exact or held[1] is not t:
        gap = _samples(exact, curve.node_count, "nodal", t)
        gap -= curve.positions
        gap.setflags(write=False)
        held = vars(curve)["_gap"] = (exact, t, gap)
    return held[2]


def l2_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0, rule: str = "gauss5"
) -> float:
    """L2 distance between the polygon and the exact curve at time t."""
    _check_rule(rule)
    J = curve.node_count
    h = curve.spacing
    if rule == "nodal":
        gap = _nodal_gap(curve, exact, t)
        return sqrt(h * float(_sum(gap * gap, None)))
    _, s, w = element_rho(J, 5)
    left = _previous(curve.positions)
    poly = left[:, None, :] * (1.0 - s)[None, :, None] + curve.positions[:, None, :] * s[None, :, None]
    # formed in place as samples - polygon: a difference's sign leaves its square
    diff = _samples(exact, J, rule, t).reshape(J, len(s), 2)
    diff -= poly
    diff *= diff
    return sqrt(h * float(np.einsum("g,jgc->", w, diff)))


def h1_seminorm_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0, rule: str = "gauss5"
) -> float:
    """H1 seminorm distance: derivative of the polygon vs the exact curve."""
    _check_rule(rule)
    J = curve.node_count
    h = curve.spacing
    slope = curve.edge_vectors() / h  # constant per element
    slopes = _slopes(exact, J, rule, t)
    # the differences are fresh and C-ordered like slopes, whatever slope's layout
    if rule == "nodal":
        a = slopes[:-1] - slope  # left endpoint of element j
        b = slopes[1:] - slope  # right endpoint
        a *= a
        b *= b
        return sqrt(0.5 * h * float(_sum(a, None) + _sum(b, None)))
    _, s, w = element_rho(J, 5)
    diff = slopes[1:].reshape(J, len(s), 2) - slope[:, None, :]
    diff *= diff
    return sqrt(h * float(np.einsum("g,jgc->", w, diff)))


def superconvergence_error(
    curve: PeriodicCurve, exact: CurveFunction, t: float = 0.0
) -> float:
    """Full H1 distance between the polygon and the interpolant of exact.

    Both arguments of the difference are piecewise linear on the same
    grid, so the norm is evaluated in closed form from the nodal gaps.
    """
    h = curve.spacing
    gap = _nodal_gap(curve, exact, t)
    left = _previous(gap)
    terms = left * left
    cross = left * gap
    terms += cross
    terms += np.multiply(gap, gap, out=cross)
    l2_sq = h / 3.0 * float(_sum(terms, None))
    jump = np.subtract(gap, left, out=left)
    jump *= jump
    semi_sq = float(_sum(jump, None)) / h
    return sqrt(l2_sq + semi_sq)


def mesh_ratio(curve):
    """Longest edge over shortest edge, roots of the extreme squared edges
    (which read 0 below about 1e-162); inf when an edge has length zero.
    For a ``CurveStack``, a list of one ratio per member."""
    squares = curve._edges[1].reshape(-1, curve.node_count)
    longest = np.sqrt(np.maximum.reduce(squares, 1)).tolist()  # ufunc: no ndarray.max layer
    ratios = [hi / lo if lo != 0.0 else float("inf") for hi, lo in zip(longest, curve._bounds[1])]
    return ratios if curve._components.ndim == 3 else ratios[0]


def min_radial(curve):
    """Smallest nodal distance to the rotation axis; for a ``CurveStack``,
    a list of one per member."""
    rmin = curve._bounds[0]
    return rmin if curve._components.ndim == 3 else rmin[0]


def diameter(curve: PeriodicCurve) -> float:
    """Largest distance between two nodes, in O(J log J).

    The farthest pair is an antipodal pair of convex hull vertices.  The
    edge directions of a counterclockwise hull turn through 2 pi once, so
    one sorted search over them finds the vertex k antipodal to every
    edge.  Candidates are real node pairs, so rounding cannot overstate
    the diameter; the neighbours k - 1, k + 1 cover an off-by-one search
    and parallel edges.  A node polygon that turns one way at every node
    and winds once is its own hull; any other goes through ``_hull``.
    """
    verts = curve.positions
    turn, e = _turns(verts)
    total = float(turn.sum())  # 2 pi times the winding number
    if not ((turn > 0.0).all() and total < 3.0 * np.pi):
        clockwise = (turn < 0.0).all() and total > -3.0 * np.pi
        verts = verts[::-1] if clockwise else verts[_hull(verts)]
        turn, e = _turns(verts)
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
        if e:  # the farthest pair is at least one edge, at most n edges apart
            dx, dy = np.ldexp(dx, -e), np.ldexp(dy, -e)
        best = max(best, float((dx * dx + dy * dy).max()))
    return float(np.ldexp(sqrt(best), e))


def _turns(verts: np.ndarray):
    """Signed turning angles from edge i to edge i + 1 of a closed polygon,
    edge i running from vertex i to vertex i + 1, and the exponent e of the
    edges' scaling: 0 when their largest component lies in [2^-401, 2^400],
    else the power of two that scales it into [1/2, 1), so that no product
    of two overflows and one that underflows is negligible."""
    edges = np.concatenate((verts[1:], verts[:1])) - verts
    e = frexp(np.abs(edges).max())[1]
    if abs(e) > 400:
        edges = np.ldexp(edges, -e)
    else:
        e = 0
    ex, ey = edges.T
    nx, ny = np.concatenate((edges[1:], edges[:1])).T
    return np.arctan2(ex * ny - ey * nx, ex * nx + ey * ny), e


def _hull(pts: np.ndarray) -> np.ndarray:
    """Indices of the strict convex hull vertices of ``pts`` (two if collinear),
    counterclockwise: Andrew's monotone chain (IPL 9, 1979) over the nodes not
    strictly inside the octagon of extreme nodes (Akl, Toussaint, IPL 7, 1978),
    scaled by a power of two to below 2^500 so that only negligible turns underflow.
    A set whose every node lies exactly on one line skips the chain."""
    x, y = np.ldexp(pts, 500 - np.frexp(np.abs(pts).max())[1]).T
    s, d = x + y, x - y
    octo = [x.argmax(), s.argmax(), y.argmax(), d.argmin(), x.argmin(), s.argmin(), y.argmin(), d.argmax()]
    a = np.column_stack((x[octo], y[octo]))
    e = np.concatenate((a[1:], a[:1])) - a  # a zero edge keeps every node
    inside = (e[:, :1] * y - e[:, 1:] * x > (e[:, 0] * a[:, 1] - e[:, 1] * a[:, 0])[:, None]).all(axis=0)
    idx = np.flatnonzero(~inside)
    idx = idx[np.lexsort((y[idx], x[idx]))]
    if len(idx) == len(x):
        # a flat octagon filters nothing; when every node lies exactly on
        # the line through the two extremes, those two are the hull
        (xs, xl), (ys, yl) = x[idx[[0, -1]]], y[idx[[0, -1]]]
        if not ((xl - xs) * (y - ys) - (yl - ys) * (x - xs)).any():
            return idx[[0, -1]]
    px, py = x[idx].tolist(), y[idx].tolist()
    lower, upper = [], []
    for chain, sweep in (lower, range(len(idx))), (upper, range(len(idx) - 1, -1, -1)):
        for i in sweep:
            while len(chain) > 1:
                j, k = chain[-2], chain[-1]
                if (px[k] - px[j]) * (py[i] - py[k]) > (py[k] - py[j]) * (px[i] - px[k]):
                    break
                chain.pop()
            chain.append(i)
    return idx[lower[:-1] + upper[:-1]]
