"""Closed generating curves in the meridian half-plane.

A torus-type surface of revolution is described by a closed curve
rho -> (r(rho), z(rho)) over the periodic reference interval [0, 1),
kept strictly inside the half-plane r > 0.  This module provides the
piecewise linear curve type used by the solver together with the
analytic start geometries of the scenario library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "InadmissibleCurveError",
    "PeriodicCurve",
    "CurveFunction",
    "interpolate",
    "torus_circle",
    "ellipse_curve",
    "rose_curve",
    "spiral_curve",
]


class InadmissibleCurveError(ValueError):
    """Raised when a curve leaves r > 0 or carries a zero-length edge."""


def _count(name: str, value, least: int) -> int:
    """``value`` as a count of at least ``least``; an integral float such
    as 64.0 passes, a bool does not."""
    if isinstance(value, bool) or not (
        isinstance(value, Integral) or (isinstance(value, Real) and float(value).is_integer())
    ):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _finite(name: str, value, positive: bool = True) -> None:
    """Check that ``value`` is a finite real number, not a bool, positive
    or, with ``positive=False``, nonnegative."""
    sign = "positive" if positive else "nonnegative"
    try:
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the range of a float
        raise ValueError(
            f"{name} must be {sign} and finite, got an integer too large for a float"
        ) from None
    if not (ok and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


def _built(cls, **values):
    """A ``cls`` holding ``values`` by one instance-dict update: no copy, no check."""
    instance = object.__new__(cls)
    vars(instance).update(values)
    return instance


def _same(a, b) -> bool:
    """Field equality: arrays by shape and entries, tuples item by item, NaN equal to NaN."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)


class _ByValue:
    """Value equality for frozen dataclasses made with ``eq=False``: declared
    fields compare pairwise by ``_same``; instance-dict caches are no fields.  NaN
    equals NaN, as nan marks untracked values.  Unhashable: hash(nan) is per object."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


# The two passes below wrap the components (2, ..., J) once, entry j of
# the wrap holding node j - 1, and square coordinate differences, which
# overflow to inf beyond about 1e154 and flush to 0 below about 1e-162;
# their callers hold np.errstate so that this happens silently.


def _edge_data(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors, viewed as (..., J, 2), and squared lengths (..., J),
    both read-only, of polygons stored component by component, (2, ..., J)."""
    vectors = comp - np.concatenate((comp[..., -1:], comp[..., :-1]), axis=-1)
    squares = vectors * vectors
    squares = squares[0] + squares[1]
    vectors.setflags(write=False)
    squares.setflags(write=False)
    return (vectors.T if vectors.ndim == 2 else vectors.transpose(1, 2, 0)), squares


def _elements(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the assemblers read of polygons stored component by
    component, (2, ..., J): a_j = r_{j-1} + r_j and hw_j = |e_j|^2 / h per
    element, squared without hypot, and hw_j + hw_{j+1}."""
    left = np.concatenate((comp[..., -1:], comp[..., :-1]), axis=-1)
    squares = comp - left
    squares *= squares
    hw = (squares[0] + squares[1]) * comp.shape[-1]
    return left[0] + comp[0], hw, hw + np.concatenate((hw[..., 1:], hw[..., :1]), axis=-1)


def _least(r: np.ndarray, squares: np.ndarray) -> tuple[list[float], list[float]]:
    """Smallest radius and smallest edge length, the root of the least
    squared edge, of each row of the radii and squared edges, (B, J)."""
    least = np.minimum.reduce  # without the Python layer of ndarray.min
    return least(r, -1).tolist(), np.sqrt(least(squares, -1)).tolist()


class _NodePolygons:
    """Edge data of closed polygons on the uniform periodic grid, read
    from ``_components``, r and z of shape (2, ..., J): one curve or a
    stack of them."""

    _components: np.ndarray

    @property
    def node_count(self) -> int:
        return self._components.shape[-1]

    @property
    def spacing(self) -> float:
        """Reference grid spacing h = 1/J."""
        return 1.0 / self._components.shape[-1]

    @property
    def r(self) -> np.ndarray:
        return self._components[0]

    @property
    def z(self) -> np.ndarray:
        return self._components[1]

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge vectors and squared lengths, computed once, read-only; the
        squares read 0 below about 1e-162 and inf beyond about 1e154."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return _edge_data(self._components)

    def edge_vectors(self) -> np.ndarray:
        """All J edges at once; edge j is node j minus node j-1 (read-only)."""
        return self._edges[0]

    @cached_property
    def _lengths(self) -> np.ndarray:
        lengths = np.hypot(self._edges[0][..., 0], self._edges[0][..., 1])
        lengths.setflags(write=False)
        return lengths

    def edge_lengths(self) -> np.ndarray:
        """Lengths of ``edge_vectors()`` by hypot, on first use (read-only)."""
        return self._lengths

    @cached_property
    def _bounds(self) -> tuple[list[float], list[float]]:
        """``_least`` of each member (one entry for a single curve)."""
        return _least(np.atleast_2d(self.r), np.atleast_2d(self._edges[1]))

    @cached_property
    def _element_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_elements`` of the curve, computed once (squares inf beyond
        about 1e154, zero below about 1e-162, silently)."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return _elements(self._components)

    def require_admissible(self, context: str = "curve") -> None:
        """Check the assemblers' data: r > 0 and every |e_j|^2 > 0."""
        rmin = float(self.r.min())
        if rmin <= 0.0:
            raise InadmissibleCurveError(
                f"{context}: radial coordinate <= 0 (min {rmin:.3e})"
            )
        if self._element_data[1].min() <= 0.0:
            raise InadmissibleCurveError(f"{context}: zero-length edge")


@dataclass(frozen=True, eq=False)
class PeriodicCurve(_NodePolygons, _ByValue):
    """Closed polygon sampled on the uniform periodic grid rho_j = j/J.

    Column 0 of ``positions`` is the radial coordinate r, column 1 the
    axial coordinate z.  Edge j runs from node j-1 to node j, so edge 0
    is the wrap-around segment.  Instances are immutable, unhashable values (``_ByValue``).
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, copy=True, order="C")
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must have shape (J, 2)")
        if pos.shape[0] < 3:
            raise ValueError("a closed polygon needs at least 3 nodes")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        vars(self).update(positions=pos, _components=pos.T)

    def __reduce__(self):  # rebuilt from positions: read-only, components a view of them
        return PeriodicCurve, (self.positions,)


class CurveStack(_NodePolygons):
    """B closed polygons on one grid, stored component by component:
    ``_components``, r and z of shape (2, B, J).

    The step kernel's working form of the curves it advances together.
    The components are the kernel's own array, taken without the copy
    and the finiteness check of ``PeriodicCurve``: the kernel checks each
    member itself.  Reductions over axis -1 of ``r`` or
    ``edge_lengths()`` give one value per member.
    """

    def __init__(self, components: np.ndarray):
        self._components = components

    @classmethod
    def _stepped(cls, comp: np.ndarray) -> "CurveStack":
        """The step kernel's new states, with their edges and bounds
        computed at once, under the caller's np.errstate."""
        edges = _edge_data(comp)
        return _built(cls, _components=comp, _edges=edges, _bounds=_least(comp[0], edges[1]))

    def take(self, rows) -> "CurveStack":
        """The stack of the members in ``rows``, in that order, built as
        ``_stepped`` builds the kernel's states: a member ends or fails
        only a few times per run, so its edges are computed again."""
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return CurveStack._stepped(self._components.take(rows, axis=1))

    def member(self, row: int) -> PeriodicCurve:
        """Member ``row`` as a curve that views the stack: its positions
        a read-only view of the row, strides (8, 8 B J), and its edges
        rows of the stack's.  No copy and no finiteness check: the
        kernel's solver audit has passed every member of its new states."""
        comp = self._components[:, row]
        comp.setflags(write=False)
        edges = self._edges
        return _built(PeriodicCurve, positions=comp.T, _components=comp, _edges=(edges[0][row], edges[1][row]))


@dataclass(frozen=True)
class CurveFunction:
    """Smooth 1-periodic parameterization rho -> (r, z).

    ``value(rho, t)`` maps an array of reference coordinates to an
    (..., 2) array of positions.  ``derivative`` is the exact rho
    derivative when available; otherwise a central difference with a
    small fixed step stands in.
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    derivative: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __call__(self, rho, t: float = 0.0) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return np.asarray(self.value(rho, t), dtype=float)

    def d_rho(self, rho, t: float = 0.0) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.derivative is not None:
            return np.asarray(self.derivative(rho, t), dtype=float)
        step = 1e-6
        return (self(rho + step, t) - self(rho - step, t)) / (2.0 * step)


def interpolate(f: CurveFunction, node_count: int, t: float = 0.0) -> PeriodicCurve:
    """Nodal interpolant of f on the uniform grid with the given node count."""
    node_count = _count("node_count", node_count, 3)
    rho = np.arange(node_count, dtype=float) / node_count
    return PeriodicCurve(f(rho, t))


@dataclass(frozen=True, kw_only=True)
class _Circle(CurveFunction):
    """Circle of ``radius`` about (center(t), 0), traversed once
    counterclockwise.  The error norms in ``diagnostics`` sample it from
    its cached per-grid tables with the arithmetic of ``value`` and
    ``derivative``, so their numbers are the same either way."""

    center: Callable[[float], float]
    radius: float


def _circle(center: Callable[[float], float], radius: float) -> CurveFunction:
    """Circle of the given radius about (center(t), 0), traversed once
    counterclockwise."""

    def value(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        return np.stack([center(t) + radius * np.cos(ang), radius * np.sin(ang)], axis=-1)

    def derivative(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        return TWO_PI * radius * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

    return _Circle(value, derivative, center=center, radius=radius)


def torus_circle(radius: float) -> CurveFunction:
    """Circle of the given radius about (1, 0), the canonical donut section.

    Requires 0 < radius < 1 so the revolved surface keeps its hole.
    """
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise ValueError(f"torus circle radius must lie in (0, 1), got {radius!r}")
    return _circle(lambda t: 1.0, radius)


def ellipse_curve() -> CurveFunction:
    """Unit circle about (5, 0): a section far from the rotation axis."""
    return _circle(lambda t: 5.0, 1.0)


def rose_curve() -> CurveFunction:
    """Six-petalled loop about (10, 0), radius 2 + cos(12 pi rho)."""

    def value(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        s = 2.0 + np.cos(6.0 * ang)
        return np.stack([10.0 + s * np.cos(ang), s * np.sin(ang)], axis=-1)

    def derivative(rho, t=0.0):
        ang = TWO_PI * np.asarray(rho, dtype=float)
        s = 2.0 + np.cos(6.0 * ang)
        ds = -6.0 * TWO_PI * np.sin(6.0 * ang)
        dr = ds * np.cos(ang) - s * TWO_PI * np.sin(ang)
        dz = ds * np.sin(ang) + s * TWO_PI * np.cos(ang)
        return np.stack([dr, dz], axis=-1)

    return CurveFunction(value, derivative)


def _triangle_wave(rho: np.ndarray) -> np.ndarray:
    """1-periodic tent: 0 at integers, 1 at half-integers."""
    frac = np.mod(rho, 1.0)
    return 1.0 - np.abs(1.0 - 2.0 * frac)


def spiral_curve(
    center: float = 3.0,
    inner: float = 0.4,
    spread: float = 1.2,
    layers: int = 2,
) -> CurveFunction:
    """Tightly coiled loop about (center, 0) closing after 2*layers + 1 turns.

    The distance from the center ramps linearly from ``inner`` up to
    ``inner + spread`` and back while the angle advances an odd number of
    full turns, so the curve closes after one period and winds
    2*layers + 1 times about its center.  ``center`` and ``inner`` must
    be positive and finite, ``spread`` nonnegative and finite, and
    ``layers`` an integer of at least 1; parameter combinations that push
    the curve out of r > 0 anywhere on a dense sample are rejected.
    """
    _finite("center", center)
    _finite("inner", inner)
    _finite("spread", spread, positive=False)
    layers = _count("layers", layers, 1)
    turns = 2 * layers + 1

    def value(rho, t=0.0):
        rho = np.asarray(rho, dtype=float)
        s = inner + spread * _triangle_wave(rho)
        ang = TWO_PI * turns * rho
        return np.stack([center + s * np.cos(ang), s * np.sin(ang)], axis=-1)

    def derivative(rho, t=0.0):
        rho = np.asarray(rho, dtype=float)
        frac = np.mod(rho, 1.0)
        s = inner + spread * _triangle_wave(rho)
        ds = spread * np.where(frac < 0.5, 2.0, -2.0)
        ang = TWO_PI * turns * rho
        dang = TWO_PI * turns
        dr = ds * np.cos(ang) - s * np.sin(ang) * dang
        dz = ds * np.sin(ang) + s * np.cos(ang) * dang
        return np.stack([dr, dz], axis=-1)

    f = CurveFunction(value, derivative)
    sample = f(np.linspace(0.0, 1.0, 4097))
    if sample[:, 0].min() <= 0.0:
        raise ValueError("spiral parameters leave the half-plane r > 0")
    return f
