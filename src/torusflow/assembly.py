"""Element integrals for the weighted periodic finite element system.

On each element of a PeriodicCurve the radial coordinate of the weight
curve is linear and the squared reference speed |W_rho|^2 equals
(edge length / h)^2, a constant, so every matrix and load entry is a
closed-form moment of the hat functions.  One private assembler builds
the bands of a M + b K, and of a M - b K with them, from the weight
curve's element data, read once; the mass, stiffness and radial-load
assemblers are readers of it.  The source load alone integrates a smooth
field, a block of elements at a time with a fixed Gauss rule per element;
a separable source's basis fields are loaded once per grid, and such a
field holds its last load for the next call at the same time level.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .curves import _built, _ByValue, _count, _next, _real, _wrapped
from .quadrature import element_rho

__all__ = [
    "CyclicTridiagonal",
    "weighted_mass_matrix",
    "weighted_stiffness_matrix",
    "radial_direction_load",
    "source_load",
]


@dataclass(frozen=True, eq=False)
class CyclicTridiagonal(_ByValue):
    """Periodic tridiagonal matrix stored by diagonals.

    Row j holds ``sub[j]`` in column (j-1) % J, ``diag[j]`` in column j
    and ``sup[j]`` in column (j+1) % J.  These three columns are distinct
    for every J >= 3, so at J = 3 the matrix is full and every entry is
    stored exactly once.  Matrices are unhashable values (``curves._ByValue``).

    The assemblers, given a ``CurveStack`` of B weight curves, return a
    stack of B matrices of one order: diagonals of shape (B, J), a
    ``matvec`` acting member by member and ``inf_norm`` the largest
    over the members.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        bands = [np.array(a, dtype=float, copy=True) for a in (self.diag, self.sub, self.sup)]
        for band in bands:
            band.setflags(write=False)
        diag, sub, sup = bands
        if not (diag.ndim == sub.ndim == sup.ndim == 1):
            raise ValueError("diagonals must be one-dimensional")
        if not (diag.shape == sub.shape == sup.shape):
            raise ValueError("diagonals must share one length")
        if diag.shape[0] < 3:
            raise ValueError("cyclic tridiagonal needs order >= 3")
        # _symmetric is True only for bands an assembler built exactly
        # symmetric: sub[j] == sup[j - 1] for every j, the corners included
        vars(self).update(diag=diag, sub=sub, sup=sup, _symmetric=False)

    @classmethod
    def _owned(cls, diag, sub, sup, symmetric: bool = False) -> "CyclicTridiagonal":
        """Matrix on freshly computed bands that nothing else holds:
        made read-only in place, without the constructor's copies and
        checks.  Bands of shape (B, J) make a stack of matrices.
        ``symmetric`` declares bands symmetric by construction, which
        the solver then takes on trust."""
        for band in (diag, sub, sup):
            band.setflags(write=False)
        return _built(cls, diag=diag, sub=sub, sup=sup, _symmetric=symmetric)

    def __reduce__(self):  # copies and pickles: read-only bands, symmetry compared again
        return CyclicTridiagonal._owned, (self.diag, self.sub, self.sup)

    @property
    def order(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, x) -> np.ndarray:
        """Product with nodal vectors, shape (J,) or columns (J, k); for a
        stack of matrices (B, J) or (B, J, k)."""
        x = np.asarray(x, dtype=float)
        dims = self.diag.shape
        if x.shape[: len(dims)] != dims or x.ndim > len(dims) + 1:
            raise ValueError(f"x must have shape {dims} or {dims} + (k,), got {x.shape}")
        columns = x.ndim > len(dims)
        if columns:
            # the columns as rows of a transposed view: the step kernel
            # stores them so, component by component
            x = x.T if x.ndim == 2 else x.transpose(2, 0, 1)
        out = _banded(self.diag, self.sub, self.sup, x)
        if columns:
            out = out.T if out.ndim == 2 else out.transpose(1, 2, 0)
        return out

    def to_dense(self) -> np.ndarray:
        J = self.order
        dense = np.zeros((J, J))
        idx = np.arange(J)
        dense[idx, idx] = self.diag
        dense[idx, (idx - 1) % J] = self.sub
        dense[idx, (idx + 1) % J] = self.sup
        return dense

    def inf_norm(self) -> float:
        return float(np.max(self._member_norms))

    @cached_property
    def _member_norms(self) -> list[float]:
        """Largest absolute row sum of each member of a stack, one entry
        for a single matrix, computed once."""
        sums = np.abs(self.diag) + np.abs(self.sub) + np.abs(self.sup)
        return sums.reshape(-1, self.order).max(axis=1).tolist()


def _banded(diag, sub, sup, x) -> np.ndarray:
    """Product of the cyclic tridiagonal bands, shape (J,) or (B, J), with
    x along its last axis: x of shape (..., J) or (..., B, J), such as
    the step kernel's components (2, B, J); one padded copy of x
    (``curves._wrapped``) gives both neighbours."""
    wrapped = _wrapped(x)
    return diag * x + sub * wrapped[..., :-2] + sup * wrapped[..., 2:]


def _element_bands(r, data, mass_factor: float, stiffness_factor: float):
    """Bands (diag, sub, sup) of mass_factor * M + stiffness_factor * K at
    the weight curve with nodal radii r and element data ``data`` (see
    ``curves._elements``), and of its mirror
    mass_factor * M - stiffness_factor * K from the same pass, bit for bit
    as a pass of its own: negating K swaps the two off-diagonal element
    products.  Element j (radius sum a_j, hw_j = |e_j|^2 / h) adds
    a_j hw_j / 12 to every entry of its M block, plus hw_j / 6 times each
    endpoint radius on the diagonal, and a_j / 2h times
    [[1, -1], [-1, 1]] to K; the bands are symmetric."""
    a, hw, pairs = data
    # a zero mass factor leaves hw out, which may hold inf
    m = (mass_factor / 12.0) * hw if mass_factor else 0.0
    k = 0.5 * r.shape[-1] * stiffness_factor
    extra = (mass_factor / 6.0) * r * pairs if mass_factor else 0.0
    if not k:  # mass only, as on every BDF right side: no mirror to build
        sub = a * m
        sub_next = _next(sub)
        return ((sub + sub_next + extra, sub, sub_next),) * 2
    # the element products a (m - k) and a (m + k), then their next
    # neighbours (entry j holding element j + 1) and the two diagonals,
    # each as one stacked operation
    off = np.empty((2,) + a.shape)
    np.subtract(m, k, out=off[0])
    np.add(m, k, out=off[1])
    off *= a
    off_next = _next(off)
    diags = off + off_next
    diags += extra
    return (diags[1], off[0], off_next[0]), (diags[0], off[1], off_next[1])


def _bands(weight, mass_factor: float, stiffness_factor: float) -> CyclicTridiagonal:
    """Matrix mass_factor * M + stiffness_factor * K at the weight curve,
    declared symmetric."""
    bands = _element_bands(weight.r, weight._element_data, mass_factor, stiffness_factor)[0]
    return CyclicTridiagonal._owned(*bands, True)


# Each assembler takes a PeriodicCurve, or a CurveStack for a stack of
# matrices or loads, one per member.


def weighted_mass_matrix(weight) -> CyclicTridiagonal:
    """Mass matrix with density r * |W_rho|^2 taken from the weight curve."""
    weight.require_admissible("mass matrix weight")
    return _bands(weight, 1.0, 0.0)


def weighted_stiffness_matrix(weight) -> CyclicTridiagonal:
    """Stiffness matrix with conductivity r taken from the weight curve."""
    weight.require_admissible("stiffness matrix weight")
    return _bands(weight, 0.0, 1.0)


def radial_direction_load(weight) -> np.ndarray:
    """Load (L, 0) with L_i the integral of |W_rho|^2 against hat i.

    Returns shape (J, 2), (B, J, 2) for a stack; only the radial
    component is nonzero because the underlying term pushes along the
    radial unit direction.
    """
    weight.require_admissible("load weight")
    pairs = weight._element_data[2]
    out = np.zeros(pairs.shape + (2,))
    out[..., 0] = 0.5 * pairs
    return out


# the bits of a time, which a held load's time must match: 0.0 and -0.0
# are two times here, since a field's coeffs may tell them apart
_bits = struct.Struct("d").pack

# Gauss points per element of every source load, stated in metadata.json
_SOURCE_POINTS = 3
# elements per block of a load build: the build holds the field values
# of at most this many elements at once
_LOAD_BLOCK = 4096


def _hat_loads(values, node_count: int, quadrature_points: int) -> np.ndarray:
    """Hat-function moments (K, J, 2) of the K fields whose values at the
    Gauss points of one block of elements, a rho array of n entries,
    ``values`` gives as (K, n, 2).  Node j takes the rising moment of
    element j and the falling one of element j + 1."""
    rho, s, wts = element_rho(node_count, quadrature_points)
    h, falling, rising = 1.0 / node_count, wts * (1.0 - s), wts * s
    left = loads = None
    for start in range(0, node_count, _LOAD_BLOCK):
        block = rho[start : start + _LOAD_BLOCK]
        vals = values(block.ravel()).reshape(-1, len(block), len(s), 2)
        if loads is None:
            left, loads = (np.empty((len(vals), node_count, 2)) for _ in range(2))
        cut = slice(start, start + len(block))
        left[:, cut] = h * np.einsum("g,...jgc->...jc", falling, vals)
        loads[:, cut] = h * np.einsum("g,...jgc->...jc", rising, vals)
    # ``_next(left, -2)`` added in place, without its (K, J, 2) temporary
    loads[:, :-1] += left[:, 1:]
    loads[:, -1] += left[:, 0]
    return loads


@lru_cache(maxsize=8)
def _basis_loads(basis, node_count: int, quadrature_points: int) -> np.ndarray:
    """Loads of the K basis fields of a separable source, read-only (K, J, 2)."""

    def values(rho):
        vals = np.asarray(basis(rho), dtype=float)
        if vals.ndim != 3 or vals.shape[1:] != (rho.size, 2):
            raise ValueError(f"source field basis gave shape {vals.shape}, expected (K, {rho.size}, 2)")
        return vals

    loads = _hat_loads(values, node_count, quadrature_points)
    loads.setflags(write=False)
    return loads


def source_load(f, node_count: int, t: float) -> np.ndarray:
    """Hat-function moments of a source field at time t, shape (J, 2),
    an array the caller owns.

    ``f`` maps (rho array, t) to an (n, 2) array and is treated as
    1-periodic.  Three Gauss points per element integrate the smooth
    sources used here essentially to roundoff.  A field with a separable
    form (``basis`` and ``coeffs``, see ``SourceField``) is loaded as
    coeffs(t) times its basis loads, computed once per grid.  Such a
    field also holds a copy of the last load computed for it, keyed by
    its id, J and the bits of t: a call for that same (f, J, t) is handed
    the copy, and the field keeps nothing; any other call, one on a copy
    of f too, computes its load and leaves a copy of it behind.  A
    Crank-Nicolson run asks for each time level twice, as the new level
    of one step and the old level of the next, and so computes it once.
    """
    J = _count("node_count", node_count, 3)
    _real("t", t)  # any sign: a held load tells 0.0 from -0.0
    basis = getattr(f, "basis", None)
    if basis is not None:
        key = (id(f), J, _bits(t))  # a copy of f copies the hold, not the id
        store = getattr(f, "__dict__", {})  # a field without one holds nothing
        held = store.pop("_held_load", None)
        if held is not None and held[0] == key:
            return held[1]
        loads = _basis_loads(basis, J, _SOURCE_POINTS)
        coeffs = f.coeffs(t)
        shape = np.shape(coeffs)
        if shape != (len(loads),):
            got = f"{shape[0]} entries" if len(shape) == 1 else f"shape {shape}"
            want = len(loads) if len(shape) == 1 else (len(loads),)
            raise ValueError(f"source field coeffs gave {got}, expected {want}")
        load = (coeffs @ loads.reshape(len(loads), -1)).reshape(J, 2)
        store["_held_load"] = (key, load.copy())
        return load

    def values(rho):
        vals = np.asarray(f(rho, t), dtype=float)
        if vals.shape != (rho.size, 2):
            raise ValueError(f"source field gave shape {vals.shape}, expected ({rho.size}, 2)")
        return vals[None]

    return _hat_loads(values, J, _SOURCE_POINTS)[0]
