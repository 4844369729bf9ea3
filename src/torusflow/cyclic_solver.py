"""Direct solver for cyclic tridiagonal systems with a residual audit.

Every solve works on a stack of B matrices of one order; a single
matrix is a stack of one.  The periodic coupling is folded out of each
member with a rank-one Sherman-Morrison update whose shift
gamma = -diag[0] keeps a symmetric positive definite matrix's
tridiagonal core symmetric positive definite.  The cores of an exactly
symmetric stack are factored as one block LDL^T (LAPACK pttrf) whose
couplings across member boundaries are zero, so it splits exactly into
the members' own factorizations; one extra column carries the rank-one
vectors.  A single member that is not symmetric, or whose core pttrf
rejects, is factored by pivoted LU (LAPACK gttrf).  Every order J >= 3
takes this path: the wrap columns (j -+ 1) mod J never coincide with
each other or with the diagonal.  The assemblers declare their
matrices symmetric by construction (mass, stiffness and step
matrices); any other matrix has its bands compared.

Each member is audited on its own, against the first bound that
suffices, by the caller that reads its verdict.  A stack whose members
all pass is done after one split and one audit: ``_split`` builds the
cores, factors them, substitutes and applies the rank-one correction in
one pass, and ``_audit`` gives each member's verdict, both under the
one np.errstate of ``solve_cyclic``.  Otherwise one loop redoes alone,
as a stack of one, each member the block did not serve: all of them
when it cannot be factored, else those that missed the audit.  A member
redone alone is split and audited again, gets up to MAX_REFINEMENTS
refinement steps, each a split of its residual with the same shift (the
same factors, computed again) and an audit of the refined solution, and,
when the split breaks down or stays inaccurate, is redone once with a
second shift, -|A|_inf, keeping the better report.  Every result
carries a measured residual, an explicit status and the path taken;
callers can rely on ``status == OK`` instead of re-checking.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .assembly import CyclicTridiagonal, _banded
from .curves import _ByValue

__all__ = ["SolveStatus", "SolveReport", "solve_cyclic"]


def _load_lapack():
    """SciPy's compiled LAPACK wrappers, loaded from their file: importing
    scipy.linalg would run its package init, most of this package's import
    time and memory, for four routines.  sys.modules is left as it was; a
    later import of scipy.linalg hands out the same routines.  When it is
    imported already, or no such file is on disk (an editable or zipped
    SciPy install), the routines are imported from it."""
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path) and "scipy.linalg" not in sys.modules:
                spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(spec.name, None)  # where the extension loader put it
                return module
    return importlib.import_module("scipy.linalg.lapack")


lapack = _load_lapack()

# status is OK only when the residual meets
#   |A x - b|_inf <= RESIDUAL_RTOL * (|b|_inf + |A|_inf * |x|_inf)
RESIDUAL_RTOL = 1e-10

# refinement steps on the existing factors after a failed audit
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12)
MAX_REFINEMENTS = 2


class SolveStatus(Enum):
    """Audit outcome, declared from best to worst."""

    OK = "ok"
    ILL_CONDITIONED = "ill_conditioned"
    SINGULAR = "singular"


_RANK = {status: rank for rank, status in enumerate(SolveStatus)}


@dataclass(frozen=True, eq=False)
class SolveReport(_ByValue):
    """Solution, its measured residual and audit status, the path taken
    (``"ldlt"`` or ``"lu"``) and the refinement steps used.

    For a stack of systems ``members`` holds each member's (status,
    residual_norm); ``status`` is OK only when every member's is,
    ``residual_norm`` is the largest, ``path`` is ``"ldlt"`` when the
    block split served the stack (else the path the members took alone,
    ``"mixed"`` if they differ) and ``refinements`` the most any member
    redone alone used.  Reports are unhashable values (``curves._ByValue``).
    """

    solution: np.ndarray
    residual_norm: float
    status: SolveStatus
    path: str = "lu"
    refinements: int = 0
    members: tuple = ()


# inf - inf and overflow in the split or the audit's residual end up as
# a non-finite x or residual, which the audit turns into a status
@np.errstate(invalid="ignore", over="ignore")
def solve_cyclic(matrix: CyclicTridiagonal, rhs) -> SolveReport:
    """Solve matrix @ x = rhs for shape (J,) or stacked (J, k) right sides;
    for a stack of B matrices, rhs of shape (B, J) or (B, J, k).

    Each member is split with the shift gamma = -diag[0].  When that split
    breaks down (an exactly singular core or a zero rank-one denominator)
    or its refined solution still fails the audit, it is redone once with
    gamma = -|A|_inf and the better result is returned.  SINGULAR then
    means both splits broke down; a nonsingular matrix can only get there
    when every shift leaves its core singular, as for a pure cyclic shift.
    A right side holding inf or NaN, or a solution that overflows, raises
    no floating-point warning: the report's status says what went wrong.
    """
    b = np.asarray(rhs, dtype=float)
    dims = matrix.diag.shape
    if b.shape[: len(dims)] != dims or b.ndim > len(dims) + 1:
        raise ValueError(f"rhs must have shape {dims} or {dims} + (k,), got {b.shape}")
    stacked = len(dims) == 2
    if not stacked:
        matrix = _rows(matrix, None)
    # the right sides column by column, (k, B, J), viewed: the step
    # kernel stores them so, component by component
    cols = (b if b.ndim == 3 else b.reshape(*matrix.diag.shape, -1)).transpose(2, 0, 1)
    shifts = -matrix.diag[:, 0]
    if 0.0 in shifts.tolist():
        shifts[shifts == 0.0] = 1.0
    path, x = _split(matrix, shifts, cols)
    B = len(shifts)
    if x is None:
        x, outcomes, redo = np.empty(cols.shape), [None] * B, range(B)
    else:
        _, outcomes, redo = _audit(matrix, cols, x)
    status, refinements = SolveStatus.OK, 0
    if redo:
        # redo alone every member the block did not serve
        alone = []
        for i in redo:
            one = slice(i, i + 1)
            report = _alone(_rows(matrix, one), cols[:, one], shifts[one])
            x[:, i], outcomes[i] = report.solution[:, 0], report.members[0]
            alone.append(report)
        if len(alone) == B:
            paths = {report.path for report in alone}
            path = paths.pop() if len(paths) == 1 else "mixed"
        # members the block served passed their audit
        status = max((report.status for report in alone), key=_RANK.get)
        refinements = max(report.refinements for report in alone)
    solution = x.transpose(1, 2, 0)
    if solution.shape != b.shape:
        solution = solution.reshape(b.shape)
    members = tuple(outcomes) if stacked else ()
    residual_norm = max(outcomes, key=itemgetter(1))[1]
    return SolveReport(solution, residual_norm, status, path, refinements, members)


def _rows(matrix: CyclicTridiagonal, index) -> CyclicTridiagonal:
    """The stack of ``band[index]`` of each band, viewed, not copied."""
    bands = (matrix.diag, matrix.sub, matrix.sup)
    return CyclicTridiagonal._owned(*(band[index] for band in bands), matrix._symmetric)


def _alone(matrix: CyclicTridiagonal, cols: np.ndarray, gamma: np.ndarray) -> SolveReport:
    """Report on a stack of one for right sides (k, 1, J): ``_refined``
    with the shift gamma (1,) and, when that is not OK, once more with
    the second shift -|A|_inf, keeping the better of the two.  The
    report's solution is stored as its columns are, (k, 1, J)."""
    report = _refined(matrix, cols, gamma)
    # any negative shift keeps the core of an SPD matrix positive definite
    second = -matrix._member_norms[0]
    if report.status is not SolveStatus.OK and second not in (0.0, gamma[0]):
        retry = _refined(matrix, cols, np.array([second]))
        if retry.status is SolveStatus.OK or retry.residual_norm < report.residual_norm:
            return retry
    return report


def _refined(matrix: CyclicTridiagonal, cols: np.ndarray, gamma: np.ndarray) -> SolveReport:
    """Audited solution (k, 1, J) of a stack of one split with the shift
    gamma (1,), refined while it misses the audit: each correction solves
    for the residual with the same split, whose factors come out the same,
    and only the refined solution, not the correction, is audited."""
    path, x = _split(matrix, gamma, cols)
    if x is None:
        nan, singular = np.full(cols.shape, np.nan), SolveStatus.SINGULAR
        return SolveReport(nan, math.inf, singular, path, 0, ((singular, math.inf),))
    residual, ((status, res_norm),), _ = _audit(matrix, cols, x)
    refinements = 0
    while status is SolveStatus.ILL_CONDITIONED and refinements < MAX_REFINEMENTS:
        refinements += 1
        candidate = x - _split(matrix, gamma, residual)[1]
        c_residual, ((c_status, c_norm),), _ = _audit(matrix, cols, candidate)
        if not c_norm < res_norm:
            break
        x, residual, res_norm, status = candidate, c_residual, c_norm, c_status
    return SolveReport(x, res_norm, status, path, refinements, ((status, res_norm),))


def _split(matrix: CyclicTridiagonal, gamma: np.ndarray, cols: np.ndarray):
    """(path, x) for a stack of B matrices split with the shifts gamma
    (B,): x the solutions of the right sides cols, both stored column by
    column, (k, B, J), unaudited; the callers audit what they read.
    Exactly symmetric stacks are factored as one block LDL^T, a single
    member otherwise by pivoted LU.  x is None when the split breaks
    down, or for B > 1 when the block cannot be factored; a member whose
    rank-one denominator breaks down gets NaN, which fails its audit."""
    diag, sub, sup = matrix.diag, matrix.sub, matrix.sup
    k, B, J = cols.shape
    alpha = sup[:, -1]  # corner entries in row J-1, column 0
    beta = sub[:, 0]  # corner entries in row 0, column J-1
    # the tridiagonal cores as one block whose members do not couple
    d = diag.copy()
    d[:, 0] = diag[:, 0] - gamma
    d[:, -1] = diag[:, -1] - alpha * beta / gamma
    e = sup.copy()
    e[:, -1] = 0.0
    d, e = d.ravel(), e.ravel()[:-1]

    symmetric = matrix._symmetric or (
        alpha.tolist() == beta.tolist() and (sub[:, 1:] == sup[:, :-1]).all()
    )
    info = 1
    if symmetric:
        # LAPACK factors a stack's cores in place; a single member keeps
        # them for the LU below
        df, ef, info = lapack.dpttrf(d, e, overwrite_d=B > 1, overwrite_e=B > 1)
        path, substitute, factors = "ldlt", lapack.dpttrs, (df, ef)
    if info != 0:
        path = "lu"
        if B > 1:
            return path, None
        *factors, info = lapack.dgttrf(sub[0, 1:], d, e)
        if info != 0:
            return path, None
        substitute = lapack.dgttrs

    # the right sides, then the rank-one vectors u, solved on the cores
    # in place (LAPACK reads the columns of a Fortran-ordered view)
    rhs = np.zeros((k + 1, B, J))
    rhs[:k] = cols
    rhs[k, :, 0] = gamma
    rhs[k, :, -1] = alpha
    y = substitute(*factors, rhs.reshape(k + 1, B * J).T, overwrite_b=1)[0].T.reshape(k + 1, B, J)
    z, y = y[k], y[:k]
    ratio = beta / gamma
    q = 1.0 + z[:, 0] + ratio * z[:, -1]
    # q / q is 1 exactly where q is finite and nonzero, else NaN
    denom = q * (q / q)
    return path, y - z * ((y[:, :, 0] + ratio * y[:, :, -1]) / denom)[:, :, None]


def _audit(matrix: CyclicTridiagonal, cols: np.ndarray, x: np.ndarray):
    """Residuals A x - b of a stack, for solutions and right sides stored
    column by column, (k, B, J), each member's (status, residual
    inf-norm) and the members whose status is not OK.

    A residual within RESIDUAL_RTOL * |b|_inf passes at once: the full
    bound only adds |A|_inf * |x|_inf >= 0, and a finite residual below
    a finite bound implies a finite x, since every entry of x enters the
    residual.  Only a member that misses pays for |x|_inf and |A|_inf.
    """
    residual = _banded(matrix.diag, matrix.sub, matrix.sup, x)
    residual -= cols
    outcomes, missed, ok = [], [], SolveStatus.OK
    # ufunc reductions, without the Python layer of ndarray.max
    for i, (res, b_max) in enumerate(zip(
        np.maximum.reduce(np.abs(residual), (0, 2)).tolist(),
        np.maximum.reduce(np.abs(cols), (0, 2)).tolist(),
    )):
        verdict = ok
        if not res <= RESIDUAL_RTOL * b_max < math.inf:
            x_max = float(np.abs(x[:, i]).max())
            if not math.isfinite(x_max):
                verdict, res = SolveStatus.SINGULAR, math.inf
            elif not res <= RESIDUAL_RTOL * (b_max + matrix._member_norms[i] * x_max):
                verdict = SolveStatus.ILL_CONDITIONED
            if verdict is not ok:
                missed.append(i)
        outcomes.append((verdict, res))
    return residual, outcomes, missed
