"""Golden geometry digests: the exact bits of every cell and pair margin.

Each case hashes, for one game, the ``float.hex`` of every cell margin (in
action order) and of every pair margin (in ``(i, j)`` key order), then the
neighbor tuples.  The run digests in ``test_golden.py`` see only the graph;
these see every margin the simplex solver returns, so a change in any pivot
or any tie-break of the solver changes a digest.

Besides the catalog and the committed games (among them ``own_loss_n8.json``,
whose 0.1-grid losses give exact ratio ties and zero pivot factors), the cases
hold seeded Voronoi games at N = 6, 10 and 16 (``voronoi_loss``), among them
seed 1002, one of whose LPs takes the phase-1 refactor, and ``NO_TIE``, a game
whose pair LPs include infeasible ones (margin ``-inf``) and a zero-margin face
that runs the triple-tie check.

To regenerate after an intended change of the margins, run
``python tests/test_geometry_golden.py`` and paste the printed table.
"""

import hashlib
import os

import numpy as np
import pytest

import pmsim.geometry
from pmsim import analyze_geometry, catalog, load_game
from pmsim.simplex import solve_lp

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# the 0/1 actions tie at q = (1/2, 1/2), where action 2 ties too; action 3
# is worse than every other action everywhere, so its tie lines miss the simplex
NO_TIE = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [2.0, 2.0]])


def voronoi_loss(seed: int, n: int, m: int) -> np.ndarray:
    """Loss ``|e_j - c_i|^2`` of n flat-Dirichlet centers on the m-outcome simplex."""
    centers = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
    return ((np.eye(m)[None] - centers[:, None]) ** 2).sum(axis=2)


def _games():
    games = {entry.name: entry.game for entry in catalog()}
    for name in ("voronoi_n16.json", "bandit3.json", "noisy_voronoi_n8.json",
                 "own_loss_n8.json"):
        games[name] = load_game(os.path.join(DATA, name))
    for seed, n, m in ((6, 6, 4), (10, 10, 5), (16, 16, 6), (1002, 16, 6)):
        games[f"voronoi_s{seed}_n{n}_m{m}"] = voronoi_loss(seed, n, m)
    games["no_tie"] = NO_TIE
    return games


GAMES = _games()

DIGESTS = {
    "bandit_mp":
        "dc746652d445eaa901b5061ad05c78de6b1c3b4cd771e85c6b53eb73f3a425ec",
    "bandit_mp_random":
        "dc746652d445eaa901b5061ad05c78de6b1c3b4cd771e85c6b53eb73f3a425ec",
    "apple_tasting":
        "dc746652d445eaa901b5061ad05c78de6b1c3b4cd771e85c6b53eb73f3a425ec",
    "label_efficient":
        "48d2855569bec66bd3accbb34699e71ad92323e6b373cda86f2abefa3c22f2f2",
    "full_info_3x3":
        "204a0a1df917f09a644c02afcdfb4a6b866e52add0a713ee783c4db9b36d41c6",
    "voronoi_n16.json":
        "513128c973b0a088891a9b99811502fb8687fd8f97da087ebc84acf940020b65",
    "bandit3.json":
        "32474f16aea358ac62372e9d3cce5978b635c7528e06e18c1dc9c5aeed2f8d1d",
    "noisy_voronoi_n8.json":
        "663d08e4c44f18e3eba383a49eb40057b33c0489a167bdb8baf7efe9015404c5",
    "own_loss_n8.json":
        "a45b16ecf2c36b22cf3679abab753a29c20a728cac986e44fee03f2d21d91c4c",
    "voronoi_s6_n6_m4":
        "b9af048b719e2194c898e3dcad24bee799d72a34c8b7f9da3b5e82b919c508c2",
    "voronoi_s10_n10_m5":
        "b8739b94a955f82dfc05a9aacbbf976998a8c096976184fbf9ddeca1eeef5b70",
    "voronoi_s16_n16_m6":
        "05de43767ef3202da7f4dc65e21a85e57c9d6896953c4eaf4872cfd96edca385",
    "voronoi_s1002_n16_m6":
        "7792258cc59b60509e7c1de53e14f068d678dae34ac58589ec12af166f9471b6",
    # max|L| = 2, so its LPs run on L / 2: cell margin 0 is the exact 0.5, one ulp below
    # the 0x1.0000000000001p-1 the solver gave on L itself
    "no_tie":
        "d67843ea308c1f0c05c341b6d07b1e559b7a7f7bdd493454420b0806a2737a2a",
}


def geometry_digest(name: str) -> str:
    graph, report = analyze_geometry(GAMES[name])
    h = hashlib.sha256()
    for d in report.cell_margins.tolist():
        h.update(float(d).hex().encode() + b"\n")
    for (i, j), d in sorted(graph.margins.items()):
        h.update(f"{i},{j}:{float(d).hex()}\n".encode())
    h.update(repr(graph.neighbors).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GAMES))
def test_geometry_digest(name):
    assert geometry_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name, calls", [("voronoi_n16.json", 1), ("no_tie", 2)])
def test_solver_calls_per_analysis(monkeypatch, name, calls):
    # one stack for the cell and pair LPs, and one for every triple-tie candidate
    seen = []

    def counting(*args):
        seen.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(pmsim.geometry, "solve_lp", counting)
    analyze_geometry(GAMES[name])
    assert len(seen) == calls


if __name__ == "__main__":
    for name in GAMES:
        print(f'    "{name}":\n        "{geometry_digest(name)}",')
