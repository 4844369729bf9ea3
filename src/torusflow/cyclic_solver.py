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

A stack of B symmetric systems of one order is solved as one block
tridiagonal system of order B*J whose couplings across block
boundaries are zero.  Its LDL^T factorization then splits exactly into
the B factorizations of the members, so every member's numbers are the
ones its own solve gives; one extra column carries all B rank-one
corrections.  Each member is audited on its own, and a member that
misses the audit is redone alone.
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
    (``"ldlt"``, ``"lu"`` or ``"dense"``) and the refinement steps used.

    For a stack of systems ``members`` holds each member's (status,
    residual_norm); ``status`` is OK only when every member's is,
    ``residual_norm`` is the largest, ``path`` is ``"ldlt"`` when the
    block split served the stack (else the path the members took alone,
    ``"mixed"`` if they differ) and ``refinements`` the most any member
    redone alone used.
    """

    solution: np.ndarray
    residual_norm: float
    status: SolveStatus
    path: str = "lu"
    refinements: int = 0
    members: tuple = ()


def solve_cyclic(matrix: CyclicTridiagonal, rhs) -> SolveReport:
    """Solve matrix @ x = rhs for shape (J,) or stacked (J, k) right sides;
    for a stack of B matrices, rhs of shape (B, J) or (B, J, k).

    Order >= 4 is split with the shift gamma = -diag[0].  When that split
    breaks down (an exactly singular core or a zero rank-one denominator)
    or its refined solution still fails the audit, it is redone once with
    gamma = -|A|_inf and the better result is returned.  SINGULAR then
    means both splits broke down; a nonsingular matrix can only get there
    when every shift leaves its core singular, as for a pure cyclic shift.
    """
    b = np.asarray(rhs, dtype=float)
    if matrix.diag.ndim == 2:
        return _solve_stack(matrix, b)
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


def _solve_stack(matrix: CyclicTridiagonal, b: np.ndarray) -> SolveReport:
    """Solve a stack of B systems, by one block split when they are all
    exactly symmetric of order >= 4; members that miss the audit, or
    every member when the block cannot be factored, are solved alone."""
    B, J = matrix.diag.shape
    if b.ndim not in (2, 3) or b.shape[:2] != (B, J):
        raise ValueError(f"rhs must have shape ({B}, {J}) or ({B}, {J}, k)")
    cols = b.reshape(B, J, -1)
    x = _block_split(matrix, cols) if J > 3 else None
    if x is None:
        x, outcomes, redo = np.empty_like(cols), [None] * B, range(B)
    else:
        # each member's audit, as _audit makes it
        band_sum = np.abs(matrix.diag) + np.abs(matrix.sub) + np.abs(matrix.sup)
        residual = np.abs(matrix.matvec(x) - cols)
        audit = zip(
            residual.max(axis=(1, 2)).tolist(),
            np.abs(x).max(axis=(1, 2)).tolist(),
            np.abs(cols).max(axis=(1, 2)).tolist(),
            band_sum.max(axis=1).tolist(),
        )
        outcomes, redo = [], []
        for i, (res, x_max, b_max, norm) in enumerate(audit):
            outcomes.append((SolveStatus.OK, res))
            if not (math.isfinite(x_max) and res <= RESIDUAL_RTOL * (b_max + norm * x_max)):
                redo.append(i)
    alone = []
    for i in redo:
        member = CyclicTridiagonal(matrix.diag[i], matrix.sub[i], matrix.sup[i])
        report = solve_cyclic(member, cols[i])
        x[i] = report.solution
        outcomes[i] = (report.status, report.residual_norm)
        alone.append(report)
    if len(alone) == B:
        paths = {report.path for report in alone}
        path = paths.pop() if len(paths) == 1 else "mixed"
    else:
        path = "ldlt"
    statuses = {status for status, _ in outcomes}
    worst = next(
        (s for s in (SolveStatus.SINGULAR, SolveStatus.ILL_CONDITIONED) if s in statuses),
        SolveStatus.OK,
    )
    return SolveReport(
        x.reshape(b.shape),
        max(res for _, res in outcomes),
        worst,
        path,
        max((report.refinements for report in alone), default=0),
        tuple(outcomes),
    )


def _block_split(matrix: CyclicTridiagonal, cols: np.ndarray):
    """Solutions (B, J, k) of a stack of exactly symmetric systems, split
    member by member with gamma = -diag[0] as ``_sherman_morrison`` does,
    the B cores factored as one block LDL^T; None when some member is not
    symmetric or the block is not positive definite.  A member whose
    rank-one denominator breaks down gets NaN, which fails its audit.

    The solutions are stored column by column, (k, B, J) in memory."""
    diag, sub, sup = matrix.diag, matrix.sub, matrix.sup
    alpha = sup[:, -1].tolist()  # corner entries in row J-1, column 0
    beta = sub[:, 0].tolist()  # corner entries in row 0, column J-1
    if alpha != beta or not (sub[:, 1:] == sup[:, :-1]).all():
        return None
    B, J, k = cols.shape
    gamma = [-v if v != 0.0 else 1.0 for v in diag[:, 0].tolist()]
    d = diag.copy()
    d[:, 0] -= gamma
    d[:, -1] -= [a * b / g for a, b, g in zip(alpha, beta, gamma)]
    e = sup.copy()
    e[:, -1] = 0.0  # no coupling from one block to the next
    df, ef, info = lapack.dpttrf(d.ravel(), e.ravel()[:-1])
    if info != 0:
        return None
    # column by column: the right sides, then the rank-one vectors u
    rhs = np.zeros((k + 1, B, J))
    rhs[:k] = cols.transpose(2, 0, 1)
    rhs[k, :, 0] = gamma
    rhs[k, :, -1] = alpha
    y = lapack.dpttrs(df, ef, rhs.reshape(k + 1, B * J).T, overwrite_b=1)[0]
    y = y.T.reshape(k + 1, B, J)
    z, y = y[k], y[:k]
    ratio = [b / g for b, g in zip(beta, gamma)]
    denom = [
        1.0 + z0 + r * zl for z0, zl, r in zip(z[:, 0].tolist(), z[:, -1].tolist(), ratio)
    ]
    denom = [q if q != 0.0 and math.isfinite(q) else math.nan for q in denom]
    scale = (y[:, :, 0] + np.array(ratio) * y[:, :, -1]) / np.array(denom)
    return (y - z * scale[:, :, None]).transpose(1, 2, 0)
