"""Element integrals for the weighted periodic finite element system.

On each element of a PeriodicCurve the radial coordinate of the weight
curve is linear and the squared reference speed |W_rho|^2 equals
(edge length / h)^2, a constant, so every matrix and load entry is a
closed-form moment of the hat functions.  One private assembler builds
the bands of a M + b K from the weight curve's element data, read once;
the mass, stiffness and radial-load assemblers are readers of it.  The
source load alone integrates a smooth field, with a fixed Gauss rule per
element, once per grid for each basis field of a separable source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .curves import _count
from .quadrature import element_rho

__all__ = [
    "CyclicTridiagonal",
    "weighted_mass_matrix",
    "weighted_stiffness_matrix",
    "radial_direction_load",
    "source_load",
]


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CyclicTridiagonal:
    """Periodic tridiagonal matrix stored by diagonals.

    Row j holds ``sub[j]`` in column (j-1) % J, ``diag[j]`` in column j
    and ``sup[j]`` in column (j+1) % J.  These three columns are distinct
    for every J >= 3, so at J = 3 the matrix is full and every entry is
    stored exactly once.

    The assemblers, given a ``CurveStack`` of B weight curves, return a
    stack of B matrices of one order: diagonals of shape (B, J), a
    ``matvec`` acting member by member and ``inf_norm`` the largest
    over the members.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    # True only for bands an assembler built exactly symmetric:
    # sub[j] == sup[j - 1] for every j, the corners included
    _symmetric = False

    def __post_init__(self):
        diag, sub, sup = map(_readonly, (self.diag, self.sub, self.sup))
        if not (diag.ndim == sub.ndim == sup.ndim == 1):
            raise ValueError("diagonals must be one-dimensional")
        if not (diag.shape == sub.shape == sup.shape):
            raise ValueError("diagonals must share one length")
        if diag.shape[0] < 3:
            raise ValueError("cyclic tridiagonal needs order >= 3")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "sup", sup)

    @classmethod
    def _owned(cls, diag, sub, sup, symmetric: bool = False) -> "CyclicTridiagonal":
        """Matrix on freshly computed bands that nothing else holds:
        made read-only in place, without the constructor's copies and
        checks.  Bands of shape (B, J) make a stack of matrices.
        ``symmetric`` declares bands symmetric by construction, which
        the solver then takes on trust."""
        matrix = object.__new__(cls)
        for name, band in (("diag", diag), ("sub", sub), ("sup", sup)):
            band.setflags(write=False)
            object.__setattr__(matrix, name, band)
        object.__setattr__(matrix, "_symmetric", symmetric)
        return matrix

    @property
    def order(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, x) -> np.ndarray:
        """Product with nodal vectors, shape (J,) or columns (J, k); for a
        stack of matrices (B, J) or (B, J, k)."""
        x = np.asarray(x, dtype=float)
        columns = x.ndim > self.diag.ndim
        if columns:
            # the columns as rows of a transposed view: the step kernel
            # stores them so, component by component
            x = x.T if x.ndim == 2 else x.transpose(2, 0, 1)
        wrapped = np.concatenate((x[..., -1:], x, x[..., :1]), axis=-1)
        out = self.diag * x + self.sub * wrapped[..., :-2] + self.sup * wrapped[..., 2:]
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


def _next(a: np.ndarray) -> np.ndarray:
    """Entry j holds entry (j + 1) % J of ``a`` along the last axis."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _bands(weight, mass_factor: float, stiffness_factor: float) -> CyclicTridiagonal:
    """Bands of mass_factor * M + stiffness_factor * K at the weight
    curve, from its element data.  Element j (radius sum a_j,
    hw_j = |e_j|^2 / h) adds a_j hw_j / 12 to every entry of its M block,
    plus hw_j / 6 times each endpoint radius on the diagonal, and
    a_j / 2h times [[1, -1], [-1, 1]] to K; the bands are symmetric."""
    a, hw, pairs = weight._element_data
    # a zero mass factor leaves hw out, which may hold inf
    m = (mass_factor / 12.0) * hw if mass_factor else 0.0
    k = 0.5 * weight.node_count * stiffness_factor
    sub = a * (m - k)
    plus = a * (m + k) if k else sub
    diag = plus + _next(plus)
    if mass_factor:
        diag += (mass_factor / 6.0) * weight.r * pairs
    return CyclicTridiagonal._owned(diag, sub, _next(sub), symmetric=True)


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
    # built component by component, the layout of the step kernel's arrays
    out = np.zeros((2,) + pairs.shape)
    out[0] = 0.5 * pairs
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def _hat_moments(vals, s, wts) -> np.ndarray:
    """Hat-function moments of field values at the Gauss points of each
    element, vals of shape (..., J, npts, 2) -> (..., J, 2)."""
    h = 1.0 / vals.shape[-3]
    left = h * np.einsum("g,...jgc->...jc", wts * (1.0 - s), vals)
    right = h * np.einsum("g,...jgc->...jc", wts * s, vals)
    return right + np.concatenate((left[..., 1:, :], left[..., :1, :]), axis=-2)


@lru_cache(maxsize=8)
def _basis_loads(basis, node_count: int, quadrature_points: int) -> np.ndarray:
    """Loads of the K basis fields of a separable source, read-only (K, J, 2)."""
    rho, s, wts = element_rho(node_count, quadrature_points)
    vals = np.asarray(basis(rho.ravel()), dtype=float)
    loads = _hat_moments(vals.reshape(-1, node_count, len(s), 2), s, wts)
    loads.setflags(write=False)
    return loads


def source_load(f, node_count: int, t: float, quadrature_points: int = 3) -> np.ndarray:
    """Hat-function moments of a source field at time t, shape (J, 2).

    ``f`` maps (rho array, t) to an (n, 2) array and is treated as
    1-periodic.  Three Gauss points per element integrate the smooth
    sources used here essentially to roundoff.  A field with a separable
    form (``basis`` and ``coeffs``, see ``SourceField``) is loaded as
    coeffs(t) times its basis loads, computed once per grid and rule.
    """
    J = _count("node_count", node_count, 3)
    basis = getattr(f, "basis", None)
    if basis is not None:
        loads = _basis_loads(basis, J, quadrature_points)
        return (f.coeffs(t) @ loads.reshape(len(loads), -1)).reshape(J, 2)
    rho, s, wts = element_rho(J, quadrature_points)
    vals = np.asarray(f(rho.ravel(), t), dtype=float).reshape(J, len(s), 2)
    return _hat_moments(vals, s, wts)
