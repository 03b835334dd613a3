"""Best-response cells over the outcome simplex and the neighborhood graph.

Action ``i``'s cell is the set of outcome distributions against which ``i``
is a best response.  Two actions are neighbors when their cells share a
boundary face with positive margin against all other actions; every action
also neighbors itself.  Games where some cell is empty (dominated action) or
where three cells meet along a shared face (degenerate), or whose graph is
disconnected, are refused by :func:`strict_gate`, since the learner's
guarantees assume none of these occurs.

Every set-up tolerance, here, in the simplex and in the observers, is written
for losses of size about 1.  So the LPs are solved on the loss divided by its
:func:`loss_unit`, a power of two, and the tolerances on their margins scale by
that unit: both are exact, so scaling a game by a power of two scales every
margin bit for bit, and no verdict depends on the unit the losses are written in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGameError, DominatedActionError
from .games import Game
from .simplex import solve_lp

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


def loss_unit(L: np.ndarray) -> float:
    """The power of two that brings ``max|L|`` into [1, 2): 1.0 for losses already there
    (and for an all-zero ``L``)."""
    top = float(np.abs(L).max())
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0.0 else 1.0


def _check_distribution(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or np.any(q < -_Q_TOL) or abs(q.sum() - 1.0) > _Q_TOL:
        raise ValueError(f"not a distribution over outcomes: {q!r}")
    return q


def best_response(L, q) -> BestResponse:
    """Smallest-index minimizer of expected loss against ``q``, with its tie set: the
    actions within ``1e-12`` of it, in the :func:`loss_unit` of ``L``."""
    L = np.asarray(L, dtype=float)
    q = _check_distribution(q)
    values = L @ q
    lo = values.min()
    ties = tuple(np.flatnonzero(values <= lo + 1e-12 * (loss_unit(L) + abs(lo))).tolist())
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


def _margins(L: np.ndarray, lps: list) -> np.ndarray:
    """Margins of the LPs ``(i, eq)`` of loss ``L``, solved as one stack on ``L`` in its
    :func:`loss_unit`: ``inf`` where d is unbounded, ``-inf`` where the LP is infeasible.

    LP ``(i, eq)`` is  max d  s.t.  q in simplex,  (L[k] - L[i]).q >= d  for
    each action k other than i and the actions in ``eq``, and  (L[a] - L[b]).q
    = 0  for each pair (a, b) of ``eq``.  Variables: q (M), d = d+ - d-, one
    surplus per row; an equality row's surplus column is all zero and never
    enters, so every LP of a game has N rows and one shape.
    """
    N, M = L.shape
    unit = loss_unit(L)
    L = L / unit
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
    return -solve_lp(c, A, b)[0] * unit


def cell_margin(L, i: int) -> float:
    """Largest margin by which action ``i`` beats all others somewhere on the simplex."""
    return float(_margins(np.asarray(L, dtype=float), [(i, ())])[0])


def pair_margin(L, i: int, j: int) -> float:
    """Margin of the face where actions ``i`` and ``j`` tie, against all others.

    Returns ``inf`` when no other action constrains the face (two-action
    games) and ``-inf`` when the tie hyperplane misses the simplex entirely.
    """
    if i == j:
        raise ValueError("pair margin needs two distinct actions")
    return float(_margins(np.asarray(L, dtype=float), [(i, [(i, j)])])[0])


def analyze_geometry(game: Game | np.ndarray) -> tuple[NeighborhoodGraph, GeometryReport]:
    """Compute the neighborhood graph together with domination/degeneracy findings.

    Never raises on a bad game; the findings live in the report so callers can
    classify games the strict gate would reject.
    """
    L = game.loss if isinstance(game, Game) else np.asarray(game, dtype=float)
    N = L.shape[0]
    if N < 2:
        raise ValueError("cell decomposition needs at least two actions")
    unit = loss_unit(L)  # the tolerances are for losses of size 1: they scale with the unit
    margin_tol = MARGIN_TOL * unit
    # equal rows within tolerance are degenerate witnesses
    tol = _EQUAL_ROW_TOL * (unit + np.maximum.reduce(np.abs(L), axis=None))
    equal = (np.maximum.reduce(np.abs(L[:, None] - L), axis=2) <= tol).tolist()
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    witnesses: list[tuple[int, ...]] = [(i, j) for i, j in pairs if equal[i][j]]

    # every cell LP, then every pair LP in (i, j) order, as one stack
    found = _margins(L, [(i, ()) for i in range(N)] + [(i, [(i, j)]) for i, j in pairs])
    cell_margins = found[:N]
    dominated = (cell_margins <= margin_tol).nonzero()[0].tolist()

    margins = dict(zip(pairs, found[N:].tolist()))
    adjacent, ties = [{i} for i in range(N)], []
    for (i, j), d in margins.items():
        if d > margin_tol:
            adjacent[i].add(j)
            adjacent[j].add(i)
        elif d >= -margin_tol:  # (i, j, k): is this zero-margin face also on k's boundary?
            ties += [(i, j, k) for k in range(N) if k not in (i, j)]
    if ties:
        on_face = _margins(L, [(i, [(i, j), (k, i)]) for i, j, k in ties]) != -np.inf
        witnesses += [t for t, hit in zip(ties, on_face.tolist()) if hit]
    neighbors = tuple(tuple(sorted(a)) for a in adjacent)
    graph = NeighborhoodGraph(n_actions=N, neighbors=neighbors, margins=margins)
    return graph, GeometryReport(cell_margins, dominated, witnesses)


def strict_gate(graph: NeighborhoodGraph, report: GeometryReport) -> None:
    """Refuse a game the learner cannot use: degenerate, dominated or disconnected."""
    if report.degenerate_witnesses:
        raise DegenerateGameError(f"degenerate game: tied cells {report.degenerate_witnesses}")
    if report.dominated_actions:
        raise DominatedActionError(f"dominated action(s) {report.dominated_actions}")
    if not graph.is_connected():
        raise DegenerateGameError("neighborhood graph is disconnected")


def build_graph(game: Game | np.ndarray) -> tuple[NeighborhoodGraph, GeometryReport]:
    """Like :func:`analyze_geometry`, but through :func:`strict_gate`."""
    graph, report = analyze_geometry(game)
    strict_gate(graph, report)
    return graph, report
