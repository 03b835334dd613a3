import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from pmsim import (
    DegenerateGameError,
    DominatedActionError,
    Game,
    analyze_geometry,
    best_response,
    build_graph,
    cell_margin,
    load_game,
    pair_margin,
    second_best,
)
from pmsim.geometry import MARGIN_TOL


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _full_info(loss):
    n, m = np.asarray(loss).shape
    return Game.deterministic(loss, [[str(j) for j in range(m)]] * n)


# --- independent oracles ----------------------------------------------------

def grid_cell_margin(L, i, grid=200_001):
    """Dense sweep over the 2-outcome simplex."""
    q1 = np.linspace(0.0, 1.0, grid)
    f = L @ np.vstack([q1, 1.0 - q1])
    gaps = np.delete(f - f[i], i, axis=0)
    return gaps.min(axis=0).max()


def sweep_pair_margin(L, i, j):
    """Exact 1-D root of the tie line f_i = f_j, then the margin there."""
    d = L[i] - L[j]
    h0, h1 = d[1], d[0]  # h(q1) = d . (q1, 1-q1) at q1 = 0 and 1
    if h0 == h1:
        if h0 != 0.0:
            return -np.inf
        roots = np.linspace(0.0, 1.0, 200_001)  # rows tie everywhere
    else:
        r = h0 / (h0 - h1)
        if not 0.0 <= r <= 1.0:
            return -np.inf
        roots = np.array([r])
    others = [k for k in range(L.shape[0]) if k not in (i, j)]
    if not others:
        return np.inf
    f = L @ np.vstack([roots, 1.0 - roots])
    return (f[others] - f[i]).min(axis=0).max()


def linprog_cell_margin(L, i):
    n, m = L.shape
    # variables (q, d); maximize d
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.zeros((n - 1, m + 1))
    rows = [k for k in range(n) if k != i]
    A_ub[:, :m] = -(L[rows] - L[i])
    A_ub[:, -1] = 1.0
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(n - 1), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res.status == 0
    return -res.fun


def linprog_pair_margin(L, i, j):
    """max d  s.t.  q in simplex,  (L_i - L_j).q = 0,  (L_k - L_i).q >= d  for k != i, j."""
    n, m = L.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    rows = [k for k in range(n) if k not in (i, j)]
    A_ub = np.zeros((len(rows), m + 1))
    A_ub[:, :m] = -(L[rows] - L[i])
    A_ub[:, -1] = 1.0
    A_eq = np.zeros((2, m + 1))
    A_eq[0, :m] = 1.0
    A_eq[1, :m] = L[i] - L[j]
    res = linprog(c, A_ub=A_ub if rows else None, b_ub=np.zeros(len(rows)) if rows else None,
                  A_eq=A_eq, b_eq=[1.0, 0.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    if res.status == 2:
        return -np.inf
    if res.status == 3:
        return np.inf
    assert res.status == 0
    return -res.fun


# --- best / second-best responses -------------------------------------------

def test_best_response_examples(three_action_loss):
    two = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert best_response(two, [0.9, 0.1]).action == 0
    assert best_response(two, [0.5, 0.5]).ties == (0, 1)
    br = best_response(three_action_loss, [0.5, 0.5])
    assert br.action == 2 and br.ties == (2,)


def test_best_response_rejects_non_distribution():
    with pytest.raises(ValueError):
        best_response(np.eye(2), [0.9, 0.3])
    with pytest.raises(ValueError):
        best_response(np.eye(2), [1.2, -0.2])


def test_second_best_examples(three_action_loss):
    assert second_best(three_action_loss, [0.5, 0.5]) in (0, 1)
    assert second_best(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.9, 0.1]) == 1
    with pytest.raises(ValueError, match="second best"):
        second_best(np.array([[0.3, 0.7]]), [0.5, 0.5])


# --- margins -----------------------------------------------------------------

def test_cell_margin_examples(three_action_loss):
    two = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert cell_margin(two, 0) == pytest.approx(1.0, abs=1e-9)
    assert cell_margin(np.array([[0.0, 1.0], [0.0, 1.0]]), 0) == pytest.approx(0.0, abs=1e-9)
    assert cell_margin(three_action_loss, 2) == pytest.approx(0.1, abs=1e-9)


def test_cell_margin_against_grid_oracle(three_action_loss):
    for i in range(3):
        assert cell_margin(three_action_loss, i) == pytest.approx(
            grid_cell_margin(three_action_loss, i), abs=1e-4)


def test_cell_margin_against_linprog_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        L = rng.random((rng.integers(2, 6), rng.integers(2, 4)))
        i = int(rng.integers(L.shape[0]))
        assert cell_margin(L, i) == pytest.approx(linprog_cell_margin(L, i), abs=1e-7)


def test_pair_margin_examples(three_action_loss):
    assert pair_margin(three_action_loss, 0, 2) == pytest.approx(0.2, abs=1e-9)
    assert pair_margin(three_action_loss, 0, 1) == pytest.approx(-0.1, abs=1e-9)
    assert pair_margin(np.array([[0.0, 1.0], [1.0, 0.0]]), 0, 1) == np.inf
    with pytest.raises(ValueError):
        pair_margin(three_action_loss, 1, 1)


def test_pair_margin_never_meets_gives_minus_inf():
    L = np.array([[0.0, 0.0], [1.0, 1.0], [0.2, 0.9]])
    assert pair_margin(L, 0, 1) == -np.inf


def test_pair_margin_against_sweep_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        L = rng.random((rng.integers(2, 6), 2))
        i, j = rng.choice(L.shape[0], size=2, replace=False)
        ours = pair_margin(L, int(i), int(j))
        ref = sweep_pair_margin(L, int(i), int(j))
        if np.isinf(ref) or np.isinf(ours):
            assert ours == ref
        else:
            assert ours == pytest.approx(ref, abs=1e-6)


def _voronoi_loss(rng, n, m):
    """Losses |e_j - c_i|^2 of Dirichlet centers: every cell is the Voronoi cell of c_i."""
    centers = rng.dirichlet(np.ones(m), size=n)
    return ((np.eye(m)[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["voronoi", "uniform", "rounded"]))
def test_margins_match_linprog(n, m, seed, kind):
    """Every cell and pair margin of random Voronoi and general N x M games, against HiGHS."""
    rng = np.random.default_rng(seed)
    if kind == "voronoi":
        L = _voronoi_loss(rng, n, m)
    else:
        L = rng.random((n, m))
        if kind == "rounded":  # coarse grid: ties, empty cells and degenerate faces
            L = np.round(L, 1)
    for i in range(n):
        assert cell_margin(L, i) == pytest.approx(linprog_cell_margin(L, i), abs=1e-8)
        for j in range(i + 1, n):
            ours, ref = pair_margin(L, i, j), linprog_pair_margin(L, i, j)
            if np.isinf(ours) or np.isinf(ref):
                assert ours == ref
            else:
                assert ours == pytest.approx(ref, abs=1e-8)


# Two N=16, M=6 Voronoi games on which an earlier simplex reported phase 1
# unbounded: the margin LP that failed, and its value from HiGHS
LP_FAULT_GAMES = [
    ("voronoi_n16_lpfault_a.json", (5,), 0.0812274096),
    ("voronoi_n16_lpfault_b.json", (4, 7), 0.0134450960),
]


@pytest.mark.parametrize("name, actions, expected", LP_FAULT_GAMES)
def test_phase1_drift_games_build(name, actions, expected):
    game = load_game(os.path.join(DATA, name))
    graph, report = build_graph(game)
    assert not report.dominated_actions and not report.degenerate_witnesses
    assert graph.is_connected()
    if len(actions) == 1:
        ours, ref = cell_margin(game.loss, *actions), linprog_cell_margin(game.loss, *actions)
    else:
        ours, ref = pair_margin(game.loss, *actions), linprog_pair_margin(game.loss, *actions)
    assert ours == pytest.approx(ref, abs=1e-9)
    assert ours == pytest.approx(expected, abs=1e-9)


def test_pair_margin_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(25):
        L = rng.random((rng.integers(2, 6), rng.integers(2, 4)))
        i, j = rng.choice(L.shape[0], size=2, replace=False)
        a, b = pair_margin(L, int(i), int(j)), pair_margin(L, int(j), int(i))
        if np.isinf(a) or np.isinf(b):
            assert a == b
        else:
            assert a == pytest.approx(b, abs=1e-9)


# --- graph construction -------------------------------------------------------

def test_build_graph_three_actions(three_action_loss):
    graph, report = build_graph(_full_info(three_action_loss))
    assert graph.neighbors == ((0, 2), (1, 2), (0, 1, 2))
    assert not report.dominated_actions and not report.degenerate_witnesses
    assert graph.is_connected()


def test_build_graph_two_actions():
    graph, _ = build_graph(_full_info([[0.0, 1.0], [1.0, 0.0]]))
    assert graph.neighbors == ((0, 1), (0, 1))


def test_build_graph_rejects_triple_tie():
    L = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
    with pytest.raises(DegenerateGameError):
        build_graph(_full_info(L))


def test_build_graph_rejects_equal_rows():
    with pytest.raises(DegenerateGameError):
        build_graph(_full_info([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))


def test_build_graph_rejects_dominated():
    L = [[0.0, 1.0], [1.0, 0.0], [0.6, 0.6]]
    with pytest.raises(DominatedActionError):
        build_graph(_full_info(L))


def test_analyze_geometry_is_lenient(label_efficient):
    graph, report = analyze_geometry(label_efficient)
    assert report.dominated_actions == [0]  # the always-cost-1 revealing row
    assert graph.neighbors[1] == (1, 2) and graph.neighbors[2] == (1, 2)


# --- structural properties ----------------------------------------------------

def _random_accepted_games(rng, count):
    games = []
    while len(games) < count:
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        L = np.round(rng.random((n, m)), 3)
        # cheap pre-filter: every action must win somewhere on a coarse grid
        q = rng.dirichlet(np.ones(m), size=256).T
        wins = np.bincount((L @ q).argmin(axis=0), minlength=n)
        if wins.min() == 0:
            continue
        try:
            graph, _ = build_graph(L)
        except (DominatedActionError, DegenerateGameError):
            continue
        games.append((L, graph))
    return games


def test_second_best_is_neighbor_of_best():
    rng = np.random.default_rng(42)
    for L, graph in _random_accepted_games(rng, 40):
        m = L.shape[1]
        checked = 0
        while checked < 40:
            q = rng.dirichlet(np.ones(m))
            values = np.sort(L @ q)
            if values[1] - values[0] < 1e-9 or (len(values) > 2 and values[2] - values[1] < 1e-9):
                continue  # only unique best and second-best count
            best = best_response(L, q).action
            assert graph.are_neighbors(best, second_best(L, q))
            checked += 1


def test_adjacency_is_scale_invariant():
    rng = np.random.default_rng(1234)
    for L, graph in _random_accepted_games(rng, 15):
        a, b = 0.5 + 2.0 * rng.random(), rng.normal()
        scaled_graph, _ = build_graph(a * L + b)
        assert scaled_graph.neighbors == graph.neighbors


def test_graph_invariants_on_random_games():
    rng = np.random.default_rng(77)
    for L, graph in _random_accepted_games(rng, 25):
        n = L.shape[0]
        for i in range(n):
            assert i in graph.neighbors[i]
            for j in graph.neighbors[i]:
                assert i in graph.neighbors[j]
        assert graph.is_connected()
        for (i, j), margin in graph.margins.items():
            assert margin > MARGIN_TOL or not graph.are_neighbors(i, j)
