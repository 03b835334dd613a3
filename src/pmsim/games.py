"""Finite partial-monitoring games.

A game is a loss matrix ``L`` (N actions x M outcomes) together with a
feedback scheme: on playing action ``i`` against outcome ``j`` the player
sees only a symbol, never ``j`` or the loss.  Feedback is either
deterministic (one symbol per matrix entry) or random (a distribution over
symbols per entry).  Each action row induces a signal matrix whose columns
describe which symbol is seen for each outcome; those matrices are the sole
interface between the game and the learning machinery.
"""

from __future__ import annotations

import json
import numbers
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

import numpy as np

from .errors import GameFormatError

DIST_TOL = 1e-12
# the largest |loss| must be 0 or within a factor LOSS_RANGE of 1, so that the
# set-up's margins and observers, and the run's automatic eta, stay finite and nonzero
LOSS_RANGE = 2.0 ** 256


@dataclass(frozen=True)
class SignalMatrix:
    """Per-action signal structure.

    ``matrix`` is s x M.  Deterministic feedback gives a 0-1 matrix with unit
    columns; random feedback gives a column-stochastic matrix whose column j
    is the symbol distribution under outcome j.  Row order follows the first
    occurrence of each symbol scanning outcome columns left to right (ties
    inside one random cell are broken lexicographically).
    """

    action: int
    symbols: tuple[str, ...]
    matrix: np.ndarray

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)


def _is_finite_number(x: Any) -> bool:
    """A finite real number, and not a bool, which ``float`` would read as 0 or 1."""
    # compared, not converted: an int beyond the float range is not finite either
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _as_loss_matrix(loss: Any) -> np.ndarray:
    if isinstance(loss, (list, tuple)):
        width = None
        for r, row in enumerate(loss):
            if not isinstance(row, (list, tuple)) or not row:
                raise GameFormatError(f"loss row {r + 1} is not a non-empty list")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise GameFormatError(
                    f"loss row {r + 1} has {len(row)} entries, expected {width}"
                )
            for c, x in enumerate(row):
                if not _is_finite_number(x):
                    raise GameFormatError(
                        f"loss row {r + 1} col {c + 1}: {x!r} is not a finite number")
    try:
        L = np.asarray(loss, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"loss matrix is not numeric: {exc}") from None
    if L.ndim != 2 or L.shape[0] < 2 or L.shape[1] < 2:
        raise GameFormatError(f"need at least 2 actions and 2 outcomes, got {L.shape}")
    if not np.all(np.isfinite(L)):
        raise GameFormatError("loss matrix contains non-finite entries")
    top = float(np.abs(L).max())
    if top and not 1.0 / LOSS_RANGE <= top <= LOSS_RANGE:
        raise GameFormatError(f"loss matrix: largest |entry| {top:.6g} is outside "
                              f"[2**-256, 2**256]")
    return L


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def draw_index(rng: np.random.Generator, cum: list[float]) -> int:
    """Inverse-CDF draw from cumulative weights ``cum``, consuming exactly one uniform.

    Returns the first index whose cumulative weight exceeds the uniform.  When
    the uniform is at or past the total, which weights summing to a hair under
    1 allow, returns the last index with positive weight.
    """
    i = bisect_right(cum, rng.random())
    return i if i < len(cum) else bisect_left(cum, cum[-1])


def _random_signal_matrix(i: int, row: Sequence[dict[str, float]], M: int) -> SignalMatrix:
    index: dict[str, int] = {}  # symbol -> row, in order of first positive weight
    for j, cell in enumerate(row):
        if not isinstance(cell, dict) or not cell:
            raise GameFormatError(f"row {i + 1} col {j + 1}: expected a symbol->weight mapping")
        total = 0.0
        for sym in sorted(cell):
            w = cell[sym]
            if not _is_finite_number(w):
                raise GameFormatError(f"row {i + 1} col {j + 1}: weight {w!r} for symbol "
                                      f"{sym!r} is not a finite number")
            if w < 0:
                raise GameFormatError(
                    f"row {i + 1} col {j + 1}: negative weight {w:.12g} for symbol {sym!r}"
                )
            total += w
            if w > 0:
                index.setdefault(sym, len(index))
        if abs(total - 1.0) > DIST_TOL:
            raise GameFormatError(f"row {i + 1} col {j + 1}: distribution sums to {total:.12g}")
    xi = np.zeros((len(index), M))
    for j, cell in enumerate(row):
        for sym, w in cell.items():
            if w > 0:
                xi[index[sym], j] = float(w)
    return SignalMatrix(action=i, symbols=tuple(index), matrix=_frozen(xi))


class Game:
    """Immutable partial-monitoring game.

    Build with :meth:`deterministic`, :meth:`with_random_signals`, or
    :func:`parse_game`.  All indices are 0-based.
    """

    def __init__(self, loss: np.ndarray, signal_matrices: tuple[SignalMatrix, ...],
                 random_signals: bool):
        self.loss = _frozen(np.array(loss, dtype=float))
        self.signal_matrices = signal_matrices
        self.random_signals = random_signals
        self.n_actions = self.loss.shape[0]
        self.n_outcomes = self.loss.shape[1]
        # [i][j]: the symbol a deterministic cell shows, and the cumulative
        # symbol weights a random cell draws from
        self._symbol_of = [m.matrix.argmax(axis=0).tolist() for m in signal_matrices]
        self._cum = [[list(accumulate(col)) for col in m.matrix.T.tolist()]
                     for m in signal_matrices]

    @classmethod
    def deterministic(cls, loss, symbol_rows: Sequence[Sequence[str]]) -> "Game":
        L = _as_loss_matrix(loss)
        _check_feedback_shape(symbol_rows, L.shape, "signals")
        rows = [[{str(s): 1.0} for s in row] for row in symbol_rows]  # point masses
        mats = tuple(_random_signal_matrix(i, row, L.shape[1]) for i, row in enumerate(rows))
        return cls(L, mats, random_signals=False)

    @classmethod
    def with_random_signals(cls, loss, dist_rows: Sequence[Sequence[dict[str, float]]]) -> "Game":
        L = _as_loss_matrix(loss)
        _check_feedback_shape(dist_rows, L.shape, "signal_dists")
        mats = tuple(_random_signal_matrix(i, row, L.shape[1]) for i, row in enumerate(dist_rows))
        return cls(L, mats, random_signals=True)

    def signal_matrix(self, i: int) -> SignalMatrix:
        return self.signal_matrices[i]

    def stacked_signal_matrix(self, i: int, j: int) -> np.ndarray:
        """Signal matrix of the pair (i, j): rows of action i, then of action j."""
        if i == j:
            raise ValueError(f"stacked signal matrix needs two distinct actions, got {i}")
        return np.vstack([self.signal_matrices[i].matrix, self.signal_matrices[j].matrix])

    def observe(self, i: int, j: int, rng: np.random.Generator | None = None) -> int:
        """Index, in action ``i``'s symbols, of the signal seen against outcome ``j``.

        Deterministic games never touch ``rng``; random-signal games consume
        exactly one uniform per call, through :func:`draw_index`.
        """
        if self.random_signals:
            if rng is None:
                raise ValueError("random-signal game requires an rng")
            return draw_index(rng, self._cum[i][j])
        return self._symbol_of[i][j]

    def to_dict(self) -> dict:
        """Round-trippable document form (see :func:`parse_game`)."""
        cells = [[{sym: w for sym, w in zip(m.symbols, col) if w > 0}
                  for col in m.matrix.T.tolist()] for m in self.signal_matrices]
        if self.random_signals:
            return {"loss": self.loss.tolist(), "signal_dists": cells}
        # a deterministic cell is a point mass on its one symbol
        return {"loss": self.loss.tolist(), "signals": [[next(iter(c)) for c in row]
                                                        for row in cells]}

    def __repr__(self) -> str:
        kind = "random" if self.random_signals else "deterministic"
        return f"Game(N={self.n_actions}, M={self.n_outcomes}, {kind} signals)"


def _check_feedback_shape(rows, shape, key):
    if not isinstance(rows, (list, tuple)) or len(rows) != shape[0]:
        raise GameFormatError(f"'{key}' must have one row per action ({shape[0]})")
    for r, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != shape[1]:
            raise GameFormatError(
                f"'{key}' row {r + 1} must have one entry per outcome ({shape[1]})"
            )


def parse_game(text: str) -> Game:
    """Parse a JSON game document.

    Deterministic form::

        {"loss": [[0, 1], [1, 0]], "signals": [["0", "1"], ["1", "0"]]}

    Random-signal form replaces ``signals`` with ``signal_dists``, a matrix of
    symbol->weight mappings, each summing to 1.  Exactly one of the two keys
    must be present.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"invalid JSON: {exc}") from None
    return game_from_dict(doc)


def game_from_dict(doc: Any) -> Game:
    if not isinstance(doc, dict):
        raise GameFormatError("game document must be a JSON object")
    if "loss" not in doc:
        raise GameFormatError("missing 'loss'")
    has_det = "signals" in doc
    has_rand = "signal_dists" in doc
    if has_det == has_rand:
        raise GameFormatError("exactly one of 'signals'/'signal_dists' must be present")
    unknown = set(doc) - {"loss", "signals", "signal_dists", "name"}
    if unknown:
        raise GameFormatError(f"unknown keys: {sorted(unknown)}")
    if has_det:
        return Game.deterministic(doc["loss"], doc["signals"])
    return Game.with_random_signals(doc["loss"], doc["signal_dists"])


def load_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())
