"""Element integrals for the weighted periodic finite element system.

On each element of a PeriodicCurve the radial coordinate of the weight
curve is linear and the squared reference speed |W_rho|^2 equals
(edge length / h)^2, a constant.  Every matrix and load entry below is
therefore a closed-form moment of the piecewise linear hat functions;
no quadrature error enters the assembled system.  The source load is
the one exception: it integrates an arbitrary smooth field with a
fixed Gauss rule per element, once per grid for each basis field of a
separable source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import PeriodicCurve
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
    and ``sup[j]`` in column (j+1) % J.  At J = 3 the wrap columns
    coincide with the neighbours of the diagonal; ``to_dense``
    accumulates entries so the representation stays exact there.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

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

    @property
    def order(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x) -> np.ndarray:
        """Product with a nodal vector of shape (J,) or a stack (J, k)."""
        x = np.asarray(x, dtype=float)
        lower = np.roll(x, 1, axis=0)
        upper = np.roll(x, -1, axis=0)
        if x.ndim == 1:
            return self.diag * x + self.sub * lower + self.sup * upper
        return (
            self.diag[:, None] * x
            + self.sub[:, None] * lower
            + self.sup[:, None] * upper
        )

    def to_dense(self) -> np.ndarray:
        J = self.order
        dense = np.zeros((J, J))
        idx = np.arange(J)
        np.add.at(dense, (idx, idx), self.diag)
        np.add.at(dense, (idx, (idx - 1) % J), self.sub)
        np.add.at(dense, (idx, (idx + 1) % J), self.sup)
        return dense

    def inf_norm(self) -> float:
        return float((np.abs(self.diag) + np.abs(self.sub) + np.abs(self.sup)).max())


def _element_data(weight: PeriodicCurve):
    """Per-element left/right radii and squared reference speed."""
    r_right = weight.r
    r_left = np.roll(r_right, 1)
    speed_sq = (weight.edge_lengths() / weight.spacing) ** 2
    return r_left, r_right, speed_sq


def weighted_mass_matrix(weight: PeriodicCurve) -> CyclicTridiagonal:
    """Mass matrix with density r * |W_rho|^2 taken from the weight curve.

    Element j contributes h * w_j * (rl/4 + rr/12) to its left node,
    h * w_j * (rl/12 + rr/4) to its right node and h * w_j * (rl + rr)/12
    to the coupling, with rl and rr the endpoint radii and w_j the
    squared reference speed.
    """
    weight.require_admissible("mass matrix weight")
    h = weight.spacing
    rl, rr, w = _element_data(weight)
    left = w * h * (rl / 4.0 + rr / 12.0)
    right = w * h * (rl / 12.0 + rr / 4.0)
    cross = w * h * (rl + rr) / 12.0
    diag = right + np.roll(left, -1)
    sub = cross
    sup = np.roll(cross, -1)
    return CyclicTridiagonal(diag, sub, sup)


def weighted_stiffness_matrix(weight: PeriodicCurve) -> CyclicTridiagonal:
    """Stiffness matrix with conductivity r taken from the weight curve.

    Hat gradients are constant per element, so element j contributes
    (mean radius / h) times the textbook [[1, -1], [-1, 1]] block.
    """
    weight.require_admissible("stiffness matrix weight")
    h = weight.spacing
    rl, rr, _ = _element_data(weight)
    rbar = 0.5 * (rl + rr) / h
    diag = rbar + np.roll(rbar, -1)
    sub = -rbar
    sup = np.roll(sub, -1)
    return CyclicTridiagonal(diag, sub, sup)


def radial_direction_load(weight: PeriodicCurve) -> np.ndarray:
    """Load (L, 0) with L_i the integral of |W_rho|^2 against hat i.

    Returns shape (J, 2); only the radial component is nonzero because
    the underlying term pushes along the radial unit direction.
    """
    weight.require_admissible("load weight")
    h = weight.spacing
    _, _, w = _element_data(weight)
    per_element = w * h
    out = np.zeros((weight.node_count, 2))
    out[:, 0] = 0.5 * (per_element + np.roll(per_element, -1))
    return out


def _hat_moments(vals, s, wts) -> np.ndarray:
    """Hat-function moments of field values at the Gauss points of each
    element, vals of shape (..., J, npts, 2) -> (..., J, 2)."""
    h = 1.0 / vals.shape[-3]
    left = h * np.einsum("g,...jgc->...jc", wts * (1.0 - s), vals)
    right = h * np.einsum("g,...jgc->...jc", wts * s, vals)
    return right + np.roll(left, -1, axis=-2)


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
    J = int(node_count)
    if J < 3:
        raise ValueError(f"node_count must be at least 3, got {node_count!r}")
    basis = getattr(f, "basis", None)
    if basis is not None:
        loads = _basis_loads(basis, J, quadrature_points)
        return (f.coeffs(t) @ loads.reshape(len(loads), -1)).reshape(J, 2)
    rho, s, wts = element_rho(J, quadrature_points)
    vals = np.asarray(f(rho.ravel(), t), dtype=float).reshape(J, len(s), 2)
    return _hat_moments(vals, s, wts)
