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
from .simplex import INFEASIBLE, OPTIMAL, solve_lp

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


def _margins(L: np.ndarray, lps: list) -> list[float]:
    """Margins of the LPs ``(i, eq)`` of loss ``L``, solved as one stack: ``inf``
    where d is unbounded, ``-inf`` where the LP is infeasible.

    LP ``(i, eq)`` is  max d  s.t.  q in simplex,  (L[k] - L[i]).q >= d  for
    each action k other than i and the actions in ``eq``, and  (L[a] - L[b]).q
    = 0  for each pair (a, b) of ``eq``.  Variables: q (M), d = d+ - d-, one
    surplus per row; an equality row's surplus column is all zero and never
    enters, so every LP of a game has N rows and one shape.
    """
    N, M = L.shape
    K, W = len(lps), M + 1 + N
    P, Q, eq_rows = [], [], []
    for s, (i, eq) in enumerate(lps):
        skip = {i}.union(*eq)
        ks = [k for k in range(N) if k not in skip]
        P += ks + [a for a, _ in eq]
        Q += [i] * len(ks) + [b for _, b in eq]
        eq_rows += range(s * N + len(ks) + 1, s * N + N)
    A = np.zeros((K, N, W))
    A[:, 0, :M] = 1.0
    A[:, 1:, :M] = (L[P] - L[Q]).reshape(K, N - 1, M)
    A[:, 1:, M:M + 2] = -1.0, 1.0
    A.reshape(K, -1)[:, W + M + 2::W + 1] = -1.0  # row r's surplus, column M + 1 + r
    A.reshape(-1, W)[eq_rows, M:] = 0.0  # an equality row has neither d nor a surplus
    b, c = np.zeros((K, N)), np.zeros(W)
    b[:, 0], c[M:M + 2] = 1.0, (-1.0, 1.0)  # q sums to 1; minimize -d = d- - d+
    return [-res.value if res.status == OPTIMAL else -np.inf if res.status == INFEASIBLE
            else np.inf for res in solve_lp(c, A, b)]


def cell_margin(L, i: int) -> float:
    """Largest margin by which action ``i`` beats all others somewhere on the simplex."""
    return _margins(np.asarray(L, dtype=float), [(i, ())])[0]


def pair_margin(L, i: int, j: int) -> float:
    """Margin of the face where actions ``i`` and ``j`` tie, against all others.

    Returns ``inf`` when no other action constrains the face (two-action
    games) and ``-inf`` when the tie hyperplane misses the simplex entirely.
    """
    if i == j:
        raise ValueError("pair margin needs two distinct actions")
    return _margins(np.asarray(L, dtype=float), [(i, [(i, j)])])[0]


def analyze_geometry(game: Game | np.ndarray) -> tuple[NeighborhoodGraph, GeometryReport]:
    """Compute the neighborhood graph together with domination/degeneracy findings.

    Never raises on a bad game; the findings live in the report so callers can
    classify games the strict gate would reject.
    """
    L = game.loss if isinstance(game, Game) else np.asarray(game, dtype=float)
    N = L.shape[0]
    if N < 2:
        raise ValueError("cell decomposition needs at least two actions")
    # equal rows within tolerance are degenerate witnesses
    tol = _EQUAL_ROW_TOL * (1.0 + np.maximum.reduce(np.abs(L), axis=None))
    equal = (np.maximum.reduce(np.abs(L[:, None] - L), axis=2) <= tol).tolist()
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    witnesses: list[tuple[int, ...]] = [(i, j) for i, j in pairs if equal[i][j]]

    # every cell LP, then every pair LP in (i, j) order, as one stack
    found = _margins(L, [(i, ()) for i in range(N)] + [(i, [(i, j)]) for i, j in pairs])
    cell_margins = np.array(found[:N])
    dominated = [i for i, d in enumerate(found[:N]) if d <= MARGIN_TOL]

    margins = dict(zip(pairs, found[N:]))
    adjacent = [{i} for i in range(N)]
    for (i, j), d in margins.items():
        if d > MARGIN_TOL:
            adjacent[i].add(j)
            adjacent[j].add(i)
        elif d >= -MARGIN_TOL:
            for k in range(N):  # is the tie face also on k's boundary?
                if k not in (i, j) and _margins(L, [(i, [(i, j), (k, i)])])[0] != -np.inf:
                    witnesses.append((i, j, k))
    neighbors = tuple(tuple(sorted(a)) for a in adjacent)
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
