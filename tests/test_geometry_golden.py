"""Golden geometry digests: the exact bits of every cell and pair margin.

Each case hashes, for one game, the ``float.hex`` of every cell margin (in
action order) and of every pair margin (in ``(i, j)`` key order), then the
neighbor tuples.  The run digests in ``test_golden.py`` see only the graph;
these see every margin the simplex solver returns, so a change in any pivot
or any tie-break of the solver changes a digest.

To regenerate after an intended change of the margins, run
``python tests/test_geometry_golden.py`` and paste the printed table.
"""

import hashlib
import os

import pytest

from pmsim import analyze_geometry, catalog, load_game

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _games():
    games = {entry.name: entry.game for entry in catalog()}
    for name in ("voronoi_n16.json", "bandit3.json"):
        games[name] = load_game(os.path.join(DATA, name))
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


if __name__ == "__main__":
    for name in GAMES:
        print(f'    "{name}":\n        "{geometry_digest(name)}",')
