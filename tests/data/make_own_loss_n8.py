"""Write ``own_loss_n8.json``: a deterministic-feedback game on a loss grid.

Losses: ``noisy_voronoi_n8.json``'s, the squared distances ``|e_j - c_i|^2``
of N=8 flat-Dirichlet centers on the M=4 outcome simplex drawn with seed 0,
rounded to a 0.1 grid.  Feedback: each action shows its own loss, as the
symbol ``f"{v:.1f}"``, so two outcomes are told apart exactly when the
action's losses on them differ.  The grid gives exact ties and zero pivot
factors in the cell and pair LPs.

Run ``python tests/data/make_own_loss_n8.py`` to rewrite the file.
"""

import json
import os

import numpy as np

SEED, N, M, GRID = 0, 8, 4, 0.1


def own_loss(seed: int, n: int, m: int) -> dict:
    centers = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
    loss = ((np.eye(m)[None] - centers[:, None]) ** 2).sum(axis=2)
    rounded = [[round(float(v) / GRID) * GRID for v in row] for row in loss]
    rounded = [[float(f"{v:.1f}") for v in row] for row in rounded]
    return {"loss": rounded, "signals": [[f"{v:.1f}" for v in row] for row in rounded]}


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "own_loss_n8.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(own_loss(SEED, N, M), fh)
        fh.write("\n")
