"""Dense two-phase simplex for the tiny linear programs in cell geometry.

Solves  min c.x  subject to  A x = b,  x >= 0  for a stack of same-shape LPs
run in lockstep, with Bland's rule so degenerate bases cannot cycle: each LP's
minimum is ``+inf`` if it is infeasible and ``-inf`` if unbounded.  A lockstep
step is one batched entering-column search, ratio test and pivot, and gives
each LP the pivots it gets alone: a pivot updates only the rows with a nonzero
factor, each by the same ``a - f*b``, and the ratio test picks the row a
sequential scan picks, where a ratio within ``_TOL`` of the best so far
replaces it only with a smaller basis variable.  Exact ties more than
``2 * _TOL`` below the other ratios go to the smallest basis variable at once;
other LPs run the scan, vectorised across LPs.

Phase 1's objective is bounded below by 0, so a phase-1 "unbounded" result is
rounding drift: only then is the LP's tableau refactored once from its basis
and its phase 1 resumed; a second failure is an :class:`LPSolverError`.  When
LPs of a stack fail, the first one's error is raised once the others are done.
"""

from __future__ import annotations

import numpy as np

from .errors import LPSolverError

_TOL = 1e-9
_MAX_ITERS = 10_000
_BLOCK = 48  # LPs run in lockstep at most, which bounds a stack's scratch memory


def _pivot(T: np.ndarray, basis: np.ndarray, k, rows, cols, col: np.ndarray) -> None:
    """Pivot LP ``k[s]`` of the stack on ``(rows[s], cols[s])``; ``col`` is
    ``T[k, :, cols]``."""
    a = np.arange(len(k))
    S = T if len(k) == len(T) else T[k]
    prow = S[a, rows]
    prow /= col[a, rows][:, None]
    f = col[:, :, None]
    # rows with a zero factor (either sign) are left untouched; the pivot
    # row's own update is overwritten
    np.subtract(S, f * prow[:, None], out=S, where=f != 0.0)
    S[a, rows] = prow
    if S is not T:
        T[k] = S
    basis[k, rows] = cols


def _ratio_test(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Leaving row of each LP, and the flags of the LPs without a candidate row."""
    cand = col > _TOL
    ratio = np.full(col.shape, np.inf)
    np.divide(rhs, col, out=ratio, where=cand)
    best = np.minimum.reduce(ratio, axis=1, keepdims=True)
    near = ratio <= best + 2 * _TOL  # all rows of an LP without a candidate (inf <= inf)
    if np.count_nonzero(near) == len(col) and col.shape[1] > 1:  # so one near row is its best
        return near.argmax(axis=1), np.zeros(len(col), dtype=bool)
    tied = ratio == best
    leaving = np.where(tied, basis, np.inf).argmin(axis=1)
    if np.count_nonzero(near) > np.count_nonzero(tied):  # a ratio near the best, not tied:
        slow = np.logical_or.reduce(near > tied, axis=1).nonzero()[0]  # scan those LPs' rows
        x_all = np.where(cand, ratio, 0.0)[slow]
        low, low_var = np.full(len(slow), np.inf), np.full(len(slow), -1)
        for r in range(col.shape[1]):
            x, var = x_all[:, r], basis[slow, r]
            take = cand[slow, r] & ((x < low - _TOL) | ((np.abs(x - low) <= _TOL) & (var < low_var)))
            leaving[slow[take]], low[take], low_var[take] = r, x[take], var[take]
    return leaving, best[:, 0] == np.inf


def _iterate(T: np.ndarray, basis: np.ndarray, n_cols: int, todo: np.ndarray):
    """Run the LPs flagged in ``todo`` in lockstep; the last tableau row is the
    reduced costs.  Returns the flags of the LPs unbounded and of those still
    running at the iteration limit."""
    ks = np.arange(len(T))
    unbounded = np.zeros(len(T), dtype=bool)
    todo = todo.copy()
    for _ in range(_MAX_ITERS):
        improving = T[:, -1, :n_cols] < -_TOL
        cols = improving.argmax(axis=1)  # Bland: first improving column
        todo &= improving[ks, cols]
        k = todo.nonzero()[0]
        if not k.size:
            break
        sel = slice(None) if k.size == len(T) else k  # every LP running: views, not copies
        cols = cols[sel]
        col = T[k, :, cols]
        rows, stop = _ratio_test(col[:, :-1], T[sel, :-1, -1], basis[sel])
        if np.count_nonzero(stop):
            done, stop = k[stop], ~stop
            unbounded[done], todo[done] = True, False
            k, rows, cols, col = k[stop], rows[stop], cols[stop], col[stop]
        _pivot(T, basis, k, rows, cols, col)
    return unbounded, todo


def _phase1(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phase-1 tableaux: artificial basis, cost row summing the artificials."""
    K, m, n = A.shape
    T = np.zeros((K, m + 1, n + m + 1))
    T[:, :m, :n], T[:, :m, -1] = A, b
    T.reshape(K, -1)[:, n:m * (n + m + 2):n + m + 2] = 1.0  # the artificials' identity
    np.negative(np.add.reduce(A, axis=1), out=T[:, -1, :n])
    np.negative(np.add.reduce(b, axis=1), out=T[:, -1, -1])
    return T


def solve_lp(c, A, b):
    """Minimize ``c.x`` s.t. ``A x = b``, ``x >= 0`` for each LP of a stack ``A`` (K, m, n),
    ``b`` (K, m): ``(value, x)``, the K minima and the (K, n) optimal points (NaN where
    there is none), as each LP gets alone.  A 2-D ``A`` is one LP: a scalar and a point."""
    A, b, c = np.asarray(A, dtype=float), np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    if A.ndim == 2:
        value, x = solve_lp(c, A[None], b[None])
        return value[0], x[0]
    K, m, n = A.shape
    if K > _BLOCK:
        value, x = zip(*(solve_lp(c, A[s:s + _BLOCK], b[s:s + _BLOCK])
                         for s in range(0, K, _BLOCK)))
        return np.concatenate(value), np.concatenate(x)
    if np.count_nonzero(neg := b < 0):
        A, b = A.copy(), b.copy()
        A[neg] *= -1
        b[neg] *= -1

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = _phase1(A, b)
    basis = np.arange(n, n + m)[None].repeat(K, axis=0)
    errors = {}
    drifted, stuck = _iterate(T, basis, n + m, np.ones(K, dtype=bool))
    if np.count_nonzero(drifted):  # bounded below by 0: the tableau has drifted
        for k in drifted.nonzero()[0].tolist():  # refactor from the starting tableau
            T0, B = _phase1(A[k:k + 1], b[k:k + 1])[0], basis[k]
            try:
                T[k, :-1] = np.linalg.solve(T0[:-1, B], T0[:-1])
            except np.linalg.LinAlgError as exc:
                errors[k], drifted[k] = f"phase 1 basis is singular on refactoring: {exc}", False
                continue
            T[k, -1] = T0[-1] - T0[-1, B] @ T[k, :-1]
        unbounded, again = _iterate(T, basis, n + m, drifted)
        errors.update((k, "phase 1 reported an unbounded auxiliary problem")
                      for k in unbounded.nonzero()[0].tolist())
        stuck |= again
    feasible = T[:, -1, -1] >= -_TOL * np.maximum(1.0, np.add.reduce(b, axis=1))  # b >= 0
    go = feasible & ~stuck
    if errors:
        go[list(errors)] = False

    # Drive leftover artificials out of the basis.  A row left without a real
    # entry to pivot on is a redundant constraint, zeroed for phase 2.
    art = (basis >= n) & go[:, None]
    if np.count_nonzero(art):
        for r in np.logical_or.reduce(art).nonzero()[0].tolist():
            k = art[:, r].nonzero()[0]
            nz = np.abs(T[k, r, :n]) > _TOL
            has = np.logical_or.reduce(nz, axis=1)
            k, cols = k[has], nz[has].argmax(axis=1)
            _pivot(T, basis, k, r, cols, T[k, :, cols])
        T[:, :-1][(basis >= n) & go[:, None]] = 0.0

    # Phase 2 on the original costs, reduced row by row as in a sequential
    # solve (a zero coefficient changes at most the sign of a zero cost); the
    # artificial columns stay in the tableau, out of play.
    cost = T[:, -1]
    cost[:, n:] = 0.0
    cost[:, :n] = c
    ks = np.arange(K)
    for r in range(m):
        coef = cost[ks, basis[:, r]]
        cost -= coef[:, None] * T[:, r]
    unbounded, again = _iterate(T, basis, n, go)
    if np.count_nonzero(stuck) or np.count_nonzero(again):
        errors.update((k, "simplex iteration limit exceeded")
                      for k in (stuck | again).nonzero()[0].tolist() if k not in errors)
    if errors:
        raise LPSolverError(errors[min(errors)])

    X = np.zeros((K, n + m))
    X[ks[:, None], basis] = T[:, :-1, -1]  # the zeroed rows' artificials get 0
    x = X[:, :n]
    value = np.where(feasible, -np.inf, np.inf)
    solved = go & ~unbounded
    for k in solved.nonzero()[0].tolist():
        value[k] = c @ x[k]
    x[~solved] = np.nan
    return value, x
