"""Exact post-hoc regret accounting from a transcript.

External regret compares against the best fixed action in hindsight;
internal regret against the best single-pair rewrite "every time action i
was played, play j instead"; the local variant restricts j to neighbors of
i.  All three are plain sums over the transcript, so they are recomputable
exactly at any prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import NeighborhoodGraph


class RegretTracker:
    """Streaming accumulator for all three regret notions.

    ``pair_sums[i, j]`` accumulates, in round order, the per-round difference
    ``loss[i, j_t] - loss[j, j_t]`` on rounds where i was played; keeping the
    per-round differences (rather than differencing two totals) makes the
    result bit-identical to a round-by-round rewrite of the transcript.
    """

    def __init__(self, loss: np.ndarray, graph: NeighborhoodGraph | None = None):
        self.loss = np.asarray(loss, dtype=float)
        n = self.loss.shape[0]
        self.graph = graph
        self.cum_loss = 0.0
        self.outcome_counts = np.zeros(self.loss.shape[1])
        self.pair_sums = np.zeros((n, n))
        self._neighbor_mask = None
        if graph is not None:
            mask = np.zeros((n, n), dtype=bool)
            for i, j in graph.neighbor_pairs():
                mask[i, j] = True
            self._neighbor_mask = mask
        self.rounds = 0

    def update(self, action: int, outcome: int) -> None:
        self.rounds += 1
        self.cum_loss += self.loss[action, outcome]
        self.outcome_counts[outcome] += 1
        self.pair_sums[action] += self.loss[action, outcome] - self.loss[:, outcome]

    def external(self) -> float:
        return self.cum_loss - float((self.loss @ self.outcome_counts).min())

    def best_fixed_action(self) -> int:
        return int(np.argmin(self.loss @ self.outcome_counts))

    def internal(self) -> tuple[float, tuple[int, int] | None]:
        d = self.pair_sums.copy()
        np.fill_diagonal(d, -np.inf)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        if d[i, j] <= 0.0:
            return 0.0, None  # the identity rewrite is already best
        return float(d[i, j]), (int(i), int(j))

    def local_internal(self) -> float:
        if self._neighbor_mask is None:
            raise ValueError("local internal regret needs a neighborhood graph")
        vals = self.pair_sums[self._neighbor_mask]
        return float(max(vals.max(initial=-np.inf), 0.0))


def _checkpoint_rounds(checkpoints: list[int] | None, horizon: int) -> np.ndarray:
    """Sorted, unique checkpoint rounds within [1, horizon]; none given means every round."""
    if not checkpoints:
        return np.arange(1, horizon + 1)
    # not np.unique: under numpy 2.4 its first call adds about 1.3 MB of peak RSS
    return np.array(sorted({int(t) for t in checkpoints if 1 <= t <= horizon}), dtype=np.intp)


class RegretCurves(NamedTuple):
    """Values after each checkpoint round ``t``, and the pair sums after the last one."""

    t: np.ndarray
    cum_loss: np.ndarray
    external: np.ndarray
    internal: np.ndarray
    local_internal: np.ndarray
    pair: np.ndarray  # RegretTracker.pair_sums


def regret_curves(action, outcome, loss, graph: NeighborhoodGraph,
                  checkpoints: list[int] | None = None) -> RegretCurves:
    """Cumulative loss and the three regrets after each checkpoint round.

    One pass over a transcript's action and outcome columns, bit-identical to
    feeding :class:`RegretTracker` round by round: each running sum is an
    ``np.cumsum`` (sequential, like ``+=``) from 0.0, row i of the pair sums
    runs over the rounds that played i, and external regret takes the
    ``loss @ counts`` mat-vec of every checkpoint as one stack of mat-vecs
    (``np.matmul`` makes each the call ``loss @ c`` makes; ``counts @ loss.T``
    differs in the last bit).  Memory is O(T * (N + M)), never T * N * N.
    """
    loss = np.asarray(loss, dtype=float)
    n, m = loss.shape
    t = _checkpoint_rounds(checkpoints, len(action))
    last = t[-1] if len(t) else 0
    action, outcome = np.asarray(action)[:last], np.asarray(outcome)[:last]
    played = loss[action, outcome]
    cum_loss = np.cumsum(np.concatenate(([0.0], played)))[t]
    counts = np.cumsum(np.eye(m)[outcome], axis=0)[t - 1]  # exact: small integers
    external = cum_loss - np.matmul(loss, counts[:, :, None])[:, :, 0].min(axis=1)

    plays = np.cumsum(np.eye(n, dtype=np.int32)[action], axis=0)[t - 1]
    neighbor = np.zeros((n, n), dtype=bool)
    for i, k in graph.neighbor_pairs():
        neighbor[i, k] = True
    pair = np.zeros((n, n))
    internal = local = np.full(len(t), -np.inf)
    for i in range(n):
        mine = action == i
        # row i of the pair sums before i's first play, then after each play
        sums = np.cumsum(np.vstack([np.zeros(n), played[mine, None] - loss[:, outcome[mine]].T]),
                         axis=0)
        pair[i] = sums[-1]
        off = np.delete(sums, i, axis=1).max(axis=1, initial=-np.inf)
        internal = np.maximum(internal, off[plays[:, i]])
        local = np.maximum(local, sums[:, neighbor[i]].max(axis=1, initial=-np.inf)[plays[:, i]])
    # floored at zero; the sums start from +0.0, so none is -0.0 for the floors to disagree on
    return RegretCurves(t, cum_loss, external, np.maximum(internal, 0.0),
                        np.maximum(local, 0.0), pair)


def theorem_bound(n_actions: int, v_bar: float, horizon: int) -> float:
    """Guaranteed ceiling on expected cumulative internal regret."""
    return 4.0 * n_actions * v_bar * math.sqrt(6.0 * math.log(n_actions) * horizon)


@dataclass
class RegretReport:
    external: float
    internal: float
    local_internal: float
    best_fixed_action: int
    worst_departure: tuple[int, int] | None
    theorem_bound: float
    checkpoints: list[int]
    curves: dict[str, list[float]]


def regret_report(transcript, loss, graph: NeighborhoodGraph, v_bar: float,
                  checkpoints: list[int] | None = None) -> RegretReport:
    """Full report, with cumulative curves at the requested checkpoints."""
    horizon = len(transcript.action)
    if horizon == 0:
        raise ValueError("empty transcript")
    marks = _checkpoint_rounds(checkpoints, horizon).tolist()
    # the horizon comes last, so entry -1 holds the final values
    c = regret_curves(transcript.action, transcript.outcome, loss, graph, marks + [horizon])
    d = c.pair.copy()
    np.fill_diagonal(d, -np.inf)
    worst = np.unravel_index(np.argmax(d), d.shape)
    loss = np.asarray(loss, dtype=float)
    counts = np.bincount(transcript.outcome, minlength=loss.shape[1]).astype(float)
    return RegretReport(
        external=float(c.external[-1]),
        internal=float(c.internal[-1]),
        local_internal=float(c.local_internal[-1]),
        best_fixed_action=int(np.argmin(loss @ counts)),
        worst_departure=(int(worst[0]), int(worst[1])) if d[worst] > 0.0 else None,
        theorem_bound=theorem_bound(loss.shape[0], v_bar, horizon),
        checkpoints=marks,
        curves={name: getattr(c, name)[:len(marks)].tolist()
                for name in ("cum_loss", "external", "internal", "local_internal")},
    )
