"""Write ``noisy_voronoi_n8.json``: a partial-information Voronoi game.

Losses: ``|e_j - c_i|^2`` for N=8 centers ``c_i`` drawn from the flat
Dirichlet on the M=4 outcome simplex with seed 0, so action i's cell is
the Voronoi cell of its center.  Signals: every action shows the outcome's
own symbol with probability RHO and a uniform symbol otherwise, so each
action's signal matrix is ``RHO * I + (1 - RHO) / M``.

Run ``python tests/data/make_noisy_voronoi_n8.py`` to rewrite the file.
"""

import json
import os

import numpy as np

SEED, N, M, RHO = 0, 8, 4, 0.5


def noisy_voronoi(seed: int, n: int, m: int, rho: float) -> dict:
    centers = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
    loss = ((np.eye(m)[None] - centers[:, None]) ** 2).sum(axis=2)
    other = (1.0 - rho) / m
    cell = [{str(s): rho + other if s == j else other for s in range(m)} for j in range(m)]
    return {"loss": loss.tolist(), "signal_dists": [cell] * n}


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "noisy_voronoi_n8.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(noisy_voronoi(SEED, N, M, RHO), fh)
        fh.write("\n")
