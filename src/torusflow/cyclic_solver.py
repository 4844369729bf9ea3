"""Direct solver for cyclic tridiagonal systems with a residual audit.

The periodic coupling is folded out with a rank-one Sherman-Morrison
update whose shift gamma = -diag[0] keeps a symmetric positive definite
matrix's tridiagonal core symmetric positive definite.  That core, the
one of every step matrix, is factorized as LDL^T (LAPACK pttrf); any
other core by pivoted LU (LAPACK gttrf).  The factors serve the right
sides, the correction column and up to two refinement steps when the
first solution fails its residual audit.  Order 3, where the wrap
entries overlap the neighbours, is solved densely.  A split that
breaks down or stays inaccurate is redone once with a second shift,
-|A|_inf, before a failure is reported.  Every result
carries a measured residual, an explicit status and the path taken;
callers can rely on ``status == OK`` instead of re-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.linalg import lapack

from .assembly import CyclicTridiagonal

__all__ = ["SolveStatus", "SolveReport", "solve_cyclic", "RESIDUAL_RTOL"]

# status is OK only when the residual meets
#   |A x - b|_inf <= RESIDUAL_RTOL * (|b|_inf + |A|_inf * |x|_inf)
RESIDUAL_RTOL = 1e-10

# refinement steps on the existing factors after a failed audit
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12)
MAX_REFINEMENTS = 2


class SolveStatus(Enum):
    OK = "ok"
    ILL_CONDITIONED = "ill_conditioned"
    SINGULAR = "singular"


@dataclass(frozen=True)
class SolveReport:
    """Solution, its measured residual and audit status, the path taken
    (``"ldlt"``, ``"lu"`` or ``"dense"``) and the refinement steps used."""

    solution: np.ndarray
    residual_norm: float
    status: SolveStatus
    path: str = "lu"
    refinements: int = 0


def solve_cyclic(matrix: CyclicTridiagonal, rhs) -> SolveReport:
    """Solve matrix @ x = rhs for shape (J,) or stacked (J, k) right sides.

    Order >= 4 is split with the shift gamma = -diag[0].  When that split
    breaks down (an exactly singular core or a zero rank-one denominator)
    or its refined solution still fails the audit, it is redone once with
    gamma = -|A|_inf and the better result is returned.  SINGULAR then
    means both splits broke down; a nonsingular matrix can only get there
    when every shift leaves its core singular, as for a pure cyclic shift.
    """
    b = np.asarray(rhs, dtype=float)
    J = matrix.order
    if b.ndim not in (1, 2) or b.shape[0] != J:
        raise ValueError(f"rhs must have shape ({J},) or ({J}, k)")
    cols = b.reshape(J, -1)
    if J == 3:
        dense = partial(np.linalg.solve, matrix.to_dense())
        return _refined(matrix, b, cols, "dense", dense)
    first = -matrix.diag[0] if matrix.diag[0] != 0.0 else 1.0
    report = _refined(matrix, b, cols, *_sherman_morrison(matrix, first))
    if report.status is SolveStatus.OK:
        return report
    # any negative shift keeps the core of an SPD matrix positive definite
    second = -matrix.inf_norm()
    if second in (0.0, first):
        return report
    retry = _refined(matrix, b, cols, *_sherman_morrison(matrix, second))
    if retry.status is SolveStatus.OK or retry.residual_norm < report.residual_norm:
        return retry
    return report


def _refined(matrix: CyclicTridiagonal, b, cols, path: str, solve) -> SolveReport:
    """Audited solution of one split, refined on its factors if needed;
    solve is None when the split broke down."""
    try:
        x = None if solve is None else solve(cols)
    except np.linalg.LinAlgError:
        x = None
    if x is None:
        return SolveReport(np.full_like(b, np.nan), math.inf, SolveStatus.SINGULAR, path)

    residual, res_norm, status = _audit(matrix, cols, x)
    refinements = 0
    while status is SolveStatus.ILL_CONDITIONED and refinements < MAX_REFINEMENTS:
        refinements += 1
        candidate = x - solve(residual)
        c_residual, c_norm, c_status = _audit(matrix, cols, candidate)
        if not c_norm < res_norm:
            break
        x, residual, res_norm, status = candidate, c_residual, c_norm, c_status
    solution = x[:, 0] if b.ndim == 1 else x
    return SolveReport(solution, res_norm, status, path, refinements)


def _sherman_morrison(matrix: CyclicTridiagonal, gamma: float):
    """(path, solve) for order >= 4 and shift gamma, solve mapping
    right-hand-side columns to solution columns; solve is None on a
    breakdown."""
    diag, sub, sup = matrix.diag, matrix.sub, matrix.sup
    alpha = sup[-1]  # corner entry in row J-1, column 0
    beta = sub[0]  # corner entry in row 0, column J-1
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    e = sup[:-1]

    core = None
    if alpha == beta and (sub[1:] == e).all():
        df, ef, info = lapack.dpttrf(d, e)
        if info == 0:
            path = "ldlt"

            def core(cols):
                return lapack.dpttrs(df, ef, cols, overwrite_b=1)[0]

    if core is None:
        path = "lu"
        dlf, df, duf, du2, ipiv, info = lapack.dgttrf(sub[1:], d, e)
        if info != 0:
            return path, None

        def core(cols):
            return lapack.dgttrs(dlf, df, duf, du2, ipiv, cols, overwrite_b=1)[0]

    u = np.zeros((len(d), 1))
    u[0], u[-1] = gamma, alpha
    z = core(u)[:, 0]
    ratio = beta / gamma
    denom = 1.0 + z[0] + ratio * z[-1]
    if denom == 0.0 or not math.isfinite(denom):
        return path, None

    def solve(cols):
        y = core(np.array(cols, order="F"))
        return y - z[:, None] * ((y[0] + ratio * y[-1]) / denom)

    return path, solve


def _audit(matrix: CyclicTridiagonal, cols: np.ndarray, x: np.ndarray):
    """Residual A x - b, its inf-norm and the status it earns."""
    residual = matrix.matvec(x) - cols
    x_max = float(np.abs(x).max())
    if not math.isfinite(x_max):
        return residual, math.inf, SolveStatus.SINGULAR
    res_norm = float(np.abs(residual).max())
    bound = RESIDUAL_RTOL * (float(np.abs(cols).max()) + matrix.inf_norm() * x_max)
    status = SolveStatus.OK if res_norm <= bound else SolveStatus.ILL_CONDITIONED
    return residual, res_norm, status
