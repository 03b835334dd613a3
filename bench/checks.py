"""Independent recomputations the benchmark checks pmsim's outputs against.

Nothing here calls into pmsim: signal matrices are rebuilt from the game
document, observers from ``np.linalg.pinv``, regret from numpy cumulative
sums over the CSV's action and outcome columns.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def signal_matrix(row) -> np.ndarray:
    """Symbols x outcomes matrix of one action's feedback row.

    A row is a list of symbols (deterministic feedback) or of symbol->weight
    mappings (random feedback).  Row order does not matter to the checks,
    since the observer's sup norm is invariant under permuting rows.
    """
    cells = [c if isinstance(c, dict) else {c: 1.0} for c in row]
    symbols = sorted({s for c in cells for s, w in c.items() if w > 0})
    S = np.zeros((len(symbols), len(cells)))
    for j, cell in enumerate(cells):
        for s, w in cell.items():
            if w > 0:
                S[symbols.index(s), j] = w
    return S


def v_bar(doc: dict, neighbor_pairs) -> float:
    """Largest sup norm of the min-norm observers over ordered neighbor pairs."""
    loss = np.asarray(doc["loss"], dtype=float)
    rows = doc.get("signals") or doc["signal_dists"]
    mats = [signal_matrix(r) for r in rows]
    best = 0.0
    for i, j in neighbor_pairs:
        stacked = np.vstack([mats[i], mats[j]])
        v = np.linalg.pinv(stacked.T) @ (loss[j] - loss[i])
        best = max(best, float(np.abs(v).max()))
    return best


def theorem_bound(n_actions: int, vbar: float, horizon: int) -> float:
    return 4.0 * n_actions * vbar * math.sqrt(6.0 * horizon * math.log(n_actions))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def regret_columns(loss: np.ndarray, actions: np.ndarray, outcomes: np.ndarray,
                   neighbor_mask: np.ndarray) -> dict[str, np.ndarray]:
    """Per-round loss and cumulative regrets, from cumulative sums.

    Internal regret after round t is the best pair rewrite "play k whenever
    i was played", ``max_{i != k} sum_{s<=t, I_s=i} loss[i, j_s] - loss[k, j_s]``,
    floored at zero; the local variant restricts k to neighbors of i.
    """
    n = loss.shape[0]
    played = loss[actions, outcomes]
    # gain[t, i, k]: what rewriting i -> k would have saved at round t
    gain = np.zeros((len(actions), n, n))
    gain[np.arange(len(actions)), actions, :] = played[:, None] - loss[:, outcomes].T
    pair = np.cumsum(gain, axis=0)
    off = ~np.eye(n, dtype=bool)
    return {
        "loss": played,
        "cum_loss": np.cumsum(played),
        "ext_regret": np.cumsum(played) - np.cumsum(loss[:, outcomes].T, axis=0).min(axis=1),
        "int_regret": np.maximum(pair[:, off].max(axis=1), 0.0),
        "local_int_regret": np.maximum(pair[:, neighbor_mask & off].max(axis=1), 0.0),
    }


def second_nearest_are_neighbors(centers: np.ndarray, neighbors, qs: np.ndarray) -> list[str]:
    """For each sampled q, its nearest and second-nearest centers must be neighbors.

    In a Voronoi game the best response to q is the nearest center; the
    segment from q to the second-nearest center crosses the face the two
    cells share inside the simplex, so the two actions neighbor each other.
    """
    errors = []
    dist = ((qs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(dist, axis=1)
    for q, (a, b) in zip(qs, order[:, :2]):
        if int(b) not in neighbors[int(a)]:
            errors.append(f"q={q.round(4).tolist()}: nearest {a} and second {b} not neighbors")
    return errors
