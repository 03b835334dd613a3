"""Observer vectors: recovering loss differences from pair signal matrices.

A neighboring pair (i, j) is observable when the loss difference between the
two actions lies in the row space of their stacked signal matrix, i.e. there
is a vector v with ``stacked(i, j)^T v = loss[j] - loss[i]``.  Such a v turns
observed signals into unbiased loss-difference estimates, so its existence
for every neighboring pair is exactly what the learner needs.  We always pick
the minimum-norm solution: it is unique, reproducible, and minimizes the
constant that scales the regret guarantee.

The first ``s_i`` entries of v, one per symbol of action i, read i's own
signal, and the rest read j's.  :func:`learner_tables` alone splits v there,
into the tables the learners play from; everything else reads v whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import lstsq as _lapack_lstsq

from .games import Game
from .geometry import NeighborhoodGraph, loss_unit

REL_TOL = 1e-8
_EPS = np.finfo(np.float64).eps  # np.linalg.lstsq's rcond=None is eps * max(M, N)


@dataclass(frozen=True)
class ObserverVector:
    """Minimum-norm v with stacked(i, j)^T v ~ loss[j] - loss[i].

    ``residual`` is the sup-norm defect of the linear system; the pair is
    observable iff it is below REL_TOL relative to the target's magnitude.
    """

    i: int
    j: int
    v: np.ndarray
    residual: float
    observable: bool


class LearnerTables(NamedTuple):
    """Learner i's observers read as tables of Python floats, built once per report.

    Every signal is a unit vector, so observer (i, j) applied to one is a
    single entry of v; these are those entries.  Read-only: every learner of
    action i made from the same report shares them, and reads its neighbor set,
    which orders its ``x`` and ``f``, from ``neighbors`` alone.
    """

    neighbors: tuple[int, ...]  # sorted, includes the owner
    # row s: observer (i, j)'s entry for own symbol s, per neighbor j (0.0 for the owner)
    top: tuple[tuple[float, ...], ...]
    # j -> (index in neighbors, observer (i, j)'s block over j's symbols)
    bottom: dict[int, tuple[int, tuple[float, ...]]]


@dataclass
class ObservabilityReport:
    per_pair: dict[tuple[int, int], ObserverVector]
    locally_observable: bool
    v_bar: float
    l_bar: float
    learner_tables: list[LearnerTables]  # by action

    def unobservable_pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, ov in self.per_pair.items() if not ov.observable)

    def to_dict(self) -> dict:
        return {
            "locally_observable": self.locally_observable,
            "v_bar": self.v_bar,
            "l_bar": self.l_bar,
            "pairs": [
                {
                    "i": ov.i,
                    "j": ov.j,
                    "observable": ov.observable,
                    "residual": ov.residual,
                    "v": ov.v.tolist() if ov.observable else None,
                }
                for ov in (self.per_pair[p] for p in sorted(self.per_pair))
            ],
        }


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a[k], b[k], rcond=None)[0]`` for every k, in one call of its gufunc.

    Passes LAPACK's ``lstsq`` gufunc what ``np.linalg.lstsq`` passes it for
    one matrix (``b[k]`` as one column, the same ``rcond`` and signature,
    under the same ``np.errstate``); each matrix of the stack has the same
    shape, so each gets the bits of its own call.
    """
    m, n = a.shape[-2:]
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        x = _lapack_lstsq(a, b[..., None], _EPS * max(n, m), signature="ddd->ddid")[0]
    return x[..., 0]


def solve_pairs(game: Game, pairs: list[tuple[int, int]]) -> list[ObserverVector]:
    """Least-squares observers of ordered pairs (i, j), all with the same symbol counts.

    Every i has the same number of symbols, and so has every j, so the pairs'
    stacked signal matrices have one shape: they are solved as one stack, and
    every residual ``|stacked(i, j)^T v - target|`` comes from one batched
    product.  They are solved and tested on the loss divided by its
    :func:`~pmsim.geometry.loss_unit`, and ``v`` and the residual are reported
    in the game's units.
    """
    ii, jj = [i for i, _ in pairs], [j for _, j in pairs]
    rows = [game.signal_matrix(a).matrix for a in range(game.n_actions)]
    # (K, s_i + s_j, M): pair k's game.stacked_signal_matrix(i, j)
    stacked = np.concatenate((np.array([rows[i] for i in ii]), np.array([rows[j] for j in jj])),
                             axis=1)
    a = stacked.transpose(0, 2, 1)
    unit = loss_unit(game.loss)
    loss = game.loss / unit
    target = loss[jj] - loss[ii]
    v = lstsq_stack(a, target)
    residual = np.abs(np.matmul(a, v[..., None])[..., 0] - target).max(axis=1).tolist()
    scale = np.abs(target).max(axis=1).tolist()
    v *= unit
    return [ObserverVector(i=i, j=j, v=v[k], residual=residual[k] * unit,
                           observable=residual[k] <= REL_TOL * (1.0 + scale[k]))
            for k, (i, j) in enumerate(pairs)]


def learner_tables(game: Game, graph: NeighborhoodGraph,
                   per_pair: dict[tuple[int, int], ObserverVector]) -> list[LearnerTables]:
    """Each action's :class:`LearnerTables`, read from its observers."""
    tables = []
    for i, nbrs in enumerate(graph.neighbors):
        nbrs = tuple(sorted(nbrs))
        v = {j: per_pair[(i, j)].v.tolist() for j in nbrs if j != i}
        split = game.signal_matrix(i).n_symbols
        own = (0.0,) * split
        top = tuple(zip(*[v[j][:split] if j != i else own for j in nbrs]))
        bottom = {j: (pos, tuple(v[j][split:])) for pos, j in enumerate(nbrs) if j != i}
        tables.append(LearnerTables(nbrs, top, bottom))
    return tables


def check_game(game: Game, graph: NeighborhoodGraph) -> ObservabilityReport:
    """Solve every neighboring pair in both orientations and aggregate.

    Each learner consumes its own orientation of a pair, so (i, j) and (j, i)
    are solved separately even though one is the block-swapped negation of
    the other.  Pairs are solved in stacks, one per pair of symbol counts,
    and the report carries every learner's tables, read from the result.
    """
    pairs = graph.neighbor_pairs()
    symbols = [game.signal_matrix(a).n_symbols for a in range(game.n_actions)]
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in pairs:
        groups.setdefault((symbols[i], symbols[j]), []).append((i, j))
    solved = {(ov.i, ov.j): ov for group in groups.values() for ov in solve_pairs(game, group)}
    per_pair = {p: solved[p] for p in pairs}
    observable = all(ov.observable for ov in per_pair.values())
    v_bar = max((float(np.abs(ov.v).max()) for ov in per_pair.values() if ov.observable),
                default=0.0)
    return ObservabilityReport(
        per_pair=per_pair,
        locally_observable=observable,
        v_bar=v_bar,
        l_bar=float(np.abs(game.loss).max()),
        learner_tables=learner_tables(game, graph, per_pair),
    )
