"""Opponents generating the outcome sequence.

Adversaries see only the public history (the player's past realized actions),
never the sampling distributions or the player's randomness.  Each adversary
draws from its own stream, seeded separately from the engine, so outcome
sequences of non-reactive kinds do not shift when learner parameters change.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

import numpy as np

from .games import Game, draw_index


class Adversary:
    """Base: bound to a game (and an optional stream) before the first round."""

    needs_rng = False

    def bind(self, game: Game, rng: np.random.Generator | None = None) -> None:
        self.game = game
        self.rng = rng

    def next_outcome(self, t: int, history) -> int:
        raise NotImplementedError


class FixedSequence(Adversary):
    def __init__(self, outcomes):
        self.outcomes = [int(j) for j in outcomes]

    def next_outcome(self, t: int, history) -> int:
        if t > len(self.outcomes):
            raise IndexError(f"fixed outcome sequence exhausted at round {t}")
        return self.outcomes[t - 1]


class IID(Adversary):
    needs_rng = True

    def __init__(self, dist):
        self.dist = np.asarray(dist, dtype=float)
        if not (np.all(self.dist >= 0) and abs(self.dist.sum() - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError(f"not an outcome distribution: {dist!r}")
        self._cum = list(accumulate(self.dist.tolist()))

    def next_outcome(self, t: int, history) -> int:
        return draw_index(self.rng, self._cum)


class AdaptiveWorst(Adversary):
    """Plays the outcome maximizing the player's loss over recent actions.

    ``window=None`` means the full history.  Ties go to the smallest outcome,
    which also covers the empty-history first round.
    """

    def __init__(self, window: int | None = None):
        if window is not None and window < 1:
            raise ValueError("window must be positive or None")
        self.window = window

    def bind(self, game: Game, rng=None) -> None:
        super().bind(game, rng)
        self._counts = np.zeros(game.n_actions)
        self._recent: deque[int] = deque()
        self._seen = 0

    def next_outcome(self, t: int, history) -> int:
        for a in history[self._seen:]:
            self._counts[a] += 1
            if self.window is not None:
                self._recent.append(a)
                if len(self._recent) > self.window:
                    self._counts[self._recent.popleft()] -= 1
        self._seen = len(history)
        totals = self._counts.dot(self.game.loss)
        return int(totals.argmax())  # the first maximum: ties go to the smallest outcome
