"""Best-response cells over the outcome simplex and the neighborhood graph.

Action ``i``'s cell is the set of outcome distributions against which ``i``
is a best response.  Two actions are neighbors when their cells share a
boundary face with positive margin against all other actions; every action
also neighbors itself.  Games where some cell is empty (dominated action) or
where three cells meet along a shared face (degenerate) are rejected by the
strict gate, since the learner's guarantees assume neither occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGameError, DominatedActionError
from .games import Game
from .simplex import INFEASIBLE, UNBOUNDED, solve_lp

MARGIN_TOL = 1e-7
_EQUAL_ROW_TOL = 1e-12
_Q_TOL = 1e-9


class BestResponse(NamedTuple):
    action: int
    ties: tuple[int, ...]


@dataclass(frozen=True)
class NeighborhoodGraph:
    n_actions: int
    neighbors: tuple[tuple[int, ...], ...]
    margins: dict[tuple[int, int], float]

    def are_neighbors(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def neighbor_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs (i, j) with j a neighbor of i and j != i."""
        return [(i, j) for i in range(self.n_actions) for j in self.neighbors[i] if j != i]

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for j in self.neighbors[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n_actions


@dataclass
class GeometryReport:
    cell_margins: np.ndarray
    dominated_actions: list[int]
    degenerate_witnesses: list[tuple[int, ...]]

    @property
    def clean(self) -> bool:
        return not self.dominated_actions and not self.degenerate_witnesses


def _check_distribution(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or np.any(q < -_Q_TOL) or abs(q.sum() - 1.0) > _Q_TOL:
        raise ValueError(f"not a distribution over outcomes: {q!r}")
    return q


def best_response(L, q) -> BestResponse:
    """Smallest-index minimizer of expected loss against ``q``, with its tie set."""
    L = np.asarray(L, dtype=float)
    q = _check_distribution(q)
    values = L @ q
    lo = values.min()
    ties = tuple(np.flatnonzero(values <= lo + 1e-12 * (1.0 + abs(lo))).tolist())
    return BestResponse(ties[0], ties)

def second_best(L, q) -> int:
    """Best action outside the best-response tie set (evaluation helper)."""
    L = np.asarray(L, dtype=float)
    q = _check_distribution(q)
    values = L @ q
    rest = np.setdiff1d(np.arange(len(values)), best_response(L, q).ties)
    if rest.size == 0:
        raise ValueError("no strict second best: all actions are tied")
    return int(rest[np.argmin(values[rest])])


def _margin_lp(ineq_rows: list[np.ndarray], eq_rows: list[np.ndarray], M: int):
    """max d  s.t.  q in simplex,  e.q = 0 (each eq),  a.q >= d (each ineq).

    Variables: q (M), d split into d+ - d-, one surplus per inequality.
    Returns an LPResult of the minimization of -d.
    """
    n_ineq = len(ineq_rows)
    n = M + 2 + n_ineq
    rows, rhs = [], []
    row = np.zeros(n)
    row[:M] = 1.0
    rows.append(row)
    rhs.append(1.0)
    for k, a in enumerate(ineq_rows):
        row = np.zeros(n)
        row[:M] = a
        row[M], row[M + 1] = -1.0, 1.0
        row[M + 2 + k] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for e in eq_rows:
        row = np.zeros(n)
        row[:M] = e
        rows.append(row)
        rhs.append(0.0)
    c = np.zeros(n)
    c[M], c[M + 1] = -1.0, 1.0
    return solve_lp(c, np.array(rows), np.array(rhs))


def cell_margin(L, i: int) -> float:
    """Largest margin by which action ``i`` beats all others somewhere on the simplex."""
    L = np.asarray(L, dtype=float)
    res = _margin_lp([L[k] - L[i] for k in range(L.shape[0]) if k != i], [], L.shape[1])
    if res.status == UNBOUNDED:
        return np.inf  # single action, nothing to beat
    return -res.value


def pair_margin(L, i: int, j: int) -> float:
    """Margin of the face where actions ``i`` and ``j`` tie, against all others.

    Returns ``inf`` when no other action constrains the face (two-action
    games) and ``-inf`` when the tie hyperplane misses the simplex entirely.
    """
    if i == j:
        raise ValueError("pair margin needs two distinct actions")
    L = np.asarray(L, dtype=float)
    ineq = [L[k] - L[i] for k in range(L.shape[0]) if k != i and k != j]
    res = _margin_lp(ineq, [L[i] - L[j]], L.shape[1])
    if res.status == INFEASIBLE:
        return -np.inf
    if res.status == UNBOUNDED:
        return np.inf
    return -res.value


def _triple_tie_feasible(L, i: int, j: int, k: int) -> bool:
    ineq = [L[h] - L[i] for h in range(L.shape[0]) if h not in (i, j, k)]
    res = _margin_lp(ineq, [L[i] - L[j], L[k] - L[i]], L.shape[1])
    return res.status != INFEASIBLE


def analyze_geometry(game: Game | np.ndarray) -> tuple[NeighborhoodGraph, GeometryReport]:
    """Compute the neighborhood graph together with domination/degeneracy findings.

    Never raises on a bad game; the findings live in the report so callers can
    classify games the strict gate would reject.
    """
    L = game.loss if isinstance(game, Game) else np.asarray(game, dtype=float)
    N = L.shape[0]
    if N < 2:
        raise ValueError("cell decomposition needs at least two actions")
    scale = 1.0 + np.abs(L).max()

    witnesses: list[tuple[int, ...]] = []
    for i in range(N):
        for j in range(i + 1, N):
            if np.abs(L[i] - L[j]).max() <= _EQUAL_ROW_TOL * scale:
                witnesses.append((i, j))

    cell_margins = np.array([cell_margin(L, i) for i in range(N)])
    dominated = [i for i in range(N) if cell_margins[i] <= MARGIN_TOL]

    margins: dict[tuple[int, int], float] = {}
    for i in range(N):
        for j in range(i + 1, N):
            d = pair_margin(L, i, j)
            margins[(i, j)] = d
            if -MARGIN_TOL <= d <= MARGIN_TOL:
                for k in range(N):
                    if k not in (i, j) and _triple_tie_feasible(L, i, j, k):
                        witnesses.append((i, j, k))

    neighbors = tuple(
        tuple(sorted({i} | {j for j in range(N) if j != i
                            and margins[(min(i, j), max(i, j))] > MARGIN_TOL}))
        for i in range(N)
    )
    graph = NeighborhoodGraph(n_actions=N, neighbors=neighbors, margins=margins)
    return graph, GeometryReport(cell_margins, dominated, witnesses)


def build_graph(game: Game | np.ndarray) -> tuple[NeighborhoodGraph, GeometryReport]:
    """Strict gate: like :func:`analyze_geometry` but rejects unusable games."""
    graph, report = analyze_geometry(game)
    if report.degenerate_witnesses:
        raise DegenerateGameError(f"degenerate game: tied cells {report.degenerate_witnesses}")
    if report.dominated_actions:
        raise DominatedActionError(f"dominated action(s) {report.dominated_actions}")
    if not graph.is_connected():
        raise DegenerateGameError("neighborhood graph is disconnected")
    return graph, report
