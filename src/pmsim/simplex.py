"""Dense two-phase simplex for the tiny linear programs in cell geometry.

Solves  min c.x  subject to  A x = b,  x >= 0  on problems with a handful of
rows and columns.  Bland's rule throughout, so degenerate bases cannot cycle.

The tableau work is done on whole arrays: a pivot is one masked update of
every row whose entry in the pivot column is nonzero, which gives each entry
the same ``a - f*b`` the row-by-row update gives, and the entering column is
the first negative reduced cost found by ``nonzero``.  The ratio test stays a
sequential scan over Python floats, so its tie-breaks (by tolerance, then by
the smaller basis variable) are unchanged.

Phase 1 minimizes the sum of the artificials, which is bounded below by 0, so
a phase-1 "unbounded" result can only be rounding drift in the tableau.  On
that result, and only then, the tableau is refactored once from the current
basis (a dense solve against the starting tableau) and phase 1 resumes; a
second failure raises :class:`LPSolverError`.  Problems that solve without
the refactor keep their exact pivot sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPSolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_MAX_ITERS = 10_000


@dataclass
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    f = T[:, col, None].copy()
    f[row] = 0.0
    # rows with a zero factor (either sign) are left untouched
    np.subtract(T, f * T[row], out=T, where=f != 0.0)
    basis[row] = col


def _iterate(T: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Run simplex iterations on tableau T (last row = reduced costs)."""
    for _ in range(_MAX_ITERS):
        improving = (T[-1, :n_cols] < -_TOL).nonzero()[0]
        if not improving.size:
            return OPTIMAL
        entering = int(improving[0])  # Bland: first improving column
        leaving, best, best_var = -1, np.inf, -1
        for r, (a, rhs) in enumerate(zip(T[:-1, entering].tolist(), T[:-1, -1].tolist())):
            if a > _TOL:
                ratio = rhs / a
                if ratio < best - _TOL or (abs(ratio - best) <= _TOL and basis[r] < best_var):
                    leaving, best, best_var = r, ratio, basis[r]
        if leaving < 0:
            return UNBOUNDED
        _pivot(T, basis, leaving, entering)
    raise LPSolverError("simplex iteration limit exceeded")


def _refactor(T: np.ndarray, T0: np.ndarray, basis: list[int]) -> None:
    """Recompute tableau T from the starting tableau T0 and the current basis."""
    try:
        T[:-1] = np.linalg.solve(T0[:-1, basis], T0[:-1])
    except np.linalg.LinAlgError as exc:
        raise LPSolverError(f"phase 1 basis is singular on refactoring: {exc}") from None
    T[-1] = T0[-1] - T0[-1, basis] @ T[:-1]


def solve_lp(c, A, b) -> LPResult:
    """Minimize ``c.x`` subject to ``A x = b`` and ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    neg = b < 0
    if neg.any():
        A[neg] *= -1
        b[neg] *= -1

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    T0 = T.copy()
    basis = list(range(n, n + m))
    if _iterate(T, basis, n + m) != OPTIMAL:
        _refactor(T, T0, basis)  # bounded below by 0: the tableau has drifted
        if _iterate(T, basis, n + m) != OPTIMAL:
            raise LPSolverError("phase 1 reported an unbounded auxiliary problem")
    if -T[-1, -1] > _TOL * max(1.0, abs(b).sum()):
        return LPResult(INFEASIBLE)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = (np.abs(T[r, :n]) > _TOL).nonzero()[0]
            if not piv.size:
                continue  # redundant constraint
            _pivot(T, basis, r, int(piv[0]))
        keep.append(r)

    basis = [basis[r] for r in keep]
    T2 = np.zeros((len(keep) + 1, n + 1))
    T2[:-1, :n] = T[keep, :n]
    T2[:-1, -1] = T[keep, -1]
    T2[-1, :n] = c
    for r, var in enumerate(basis):
        if abs(T2[-1, var]) > 0.0:
            T2[-1] -= T2[-1, var] * T2[r]

    status = _iterate(T2, basis, n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = np.zeros(n)
    x[basis] = T2[:-1, -1]
    return LPResult(OPTIMAL, x=x, value=float(c @ x))
