import json
import os

import numpy as np
import pytest

from pmsim import Game, analyze_geometry, catalog, check_game, parse_game, resolve_game
from pmsim.observability import solve_pairs

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GAMES = [entry.name for entry in catalog()] + sorted(
    os.path.join(DATA, name) for name in os.listdir(DATA) if name.endswith(".json"))


def _observer(game, i, j):
    """``(v, residual, observable)`` of the pair (i, j), solved alone."""
    v, residual, observable = solve_pairs(game, [(i, j)])
    return v[0], float(residual[0]), bool(observable[0])


def _report(game):
    graph, _ = analyze_geometry(game)
    return check_game(game, graph)


def pinv_observer(game, i, j):
    """Independent minimum-norm solution via the pseudoinverse."""
    A = game.stacked_signal_matrix(i, j).T
    return np.linalg.pinv(A) @ (game.loss[j] - game.loss[i])


def is_solvable_by_rank(game, i, j):
    A = game.stacked_signal_matrix(i, j).T
    target = (game.loss[j] - game.loss[i]).reshape(-1, 1)
    return np.linalg.matrix_rank(np.hstack([A, target])) == np.linalg.matrix_rank(A)


def test_bandit_observer_vector(bandit_mp):
    v, _, observable = _observer(bandit_mp, 0, 1)
    assert observable
    np.testing.assert_allclose(v, [0.5, -0.5, 0.5, -0.5], atol=1e-9)
    report = _report(bandit_mp)
    assert report.locally_observable
    assert report.v_bar == pytest.approx(0.5, abs=1e-9)
    assert report.l_bar == 1.0


def test_apple_tasting_observer_vector(apple_tasting):
    v, _, observable = _observer(apple_tasting, 0, 1)
    assert observable
    np.testing.assert_allclose(v, [0.0, -1.0, 1.0], atol=1e-9)
    assert np.abs(v).max() == pytest.approx(1.0, abs=1e-9)
    assert _report(apple_tasting).locally_observable


def test_label_efficient_blind_pair_unobservable(label_efficient):
    # the two blind rows stack to constant signal rows, orthogonal to (1,-1)
    _, _, observable = _observer(label_efficient, 1, 2)
    assert not observable
    assert not is_solvable_by_rank(label_efficient, 1, 2)
    report = _report(label_efficient)
    assert not report.locally_observable
    assert (1, 2) in report.unobservable_pairs()


def test_full_information_always_observable(full_info_3x3):
    assert _report(full_info_3x3).locally_observable


def test_random_signal_bandit_observable(bandit_mp_random):
    report = _report(bandit_mp_random)
    assert report.locally_observable
    np.testing.assert_allclose(report.v[report.pairs.index((0, 1))],
                               pinv_observer(bandit_mp_random, 0, 1), atol=1e-9)
    assert report.v_bar == pytest.approx(0.625, abs=1e-9)


def test_minimum_norm_matches_pinv_on_random_games():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        symbols = [[str(rng.integers(0, 3)) for _ in range(m)] for _ in range(n)]
        game = Game.deterministic(rng.random((n, m)), symbols)
        i, j = rng.choice(n, size=2, replace=False)
        v, _, observable = _observer(game, int(i), int(j))
        assert observable == is_solvable_by_rank(game, int(i), int(j))
        if observable:
            np.testing.assert_allclose(v, pinv_observer(game, int(i), int(j)), atol=1e-8)


def test_orientation_antisymmetry(bandit_mp, apple_tasting, full_info_3x3):
    for game in (bandit_mp, apple_tasting, full_info_3x3):
        graph, _ = analyze_geometry(game)
        for i, j in graph.neighbor_pairs():
            (fwd, fwd_residual, _), (bwd, bwd_residual, _) = (_observer(game, i, j),
                                                              _observer(game, j, i))
            assert fwd_residual == pytest.approx(bwd_residual, abs=1e-12)
            assert np.linalg.norm(fwd) == pytest.approx(np.linalg.norm(bwd), abs=1e-9)
            split = game.signal_matrix(j).n_symbols  # bwd's leading block reads j's symbols
            swapped = np.concatenate([bwd[split:], bwd[:split]])
            np.testing.assert_allclose(fwd, -swapped, atol=1e-9)


def test_residual_is_recomputable(label_efficient):
    for (i, j) in [(0, 1), (1, 2), (0, 2)]:
        v, residual, _ = _observer(label_efficient, i, j)
        target = label_efficient.loss[j] - label_efficient.loss[i]
        direct = np.abs(label_efficient.stacked_signal_matrix(i, j).T @ v - target).max()
        assert residual == pytest.approx(direct, abs=1e-12)


def test_v_bar_survives_reparsing(bandit_mp_random):
    doc = json.dumps(bandit_mp_random.to_dict())
    a, b = parse_game(doc), parse_game(doc)
    assert _report(a).v_bar == _report(b).v_bar


def test_report_serializes(bandit_mp):
    doc = _report(bandit_mp).to_dict()
    assert doc["locally_observable"] is True
    assert {p["observable"] for p in doc["pairs"]} == {True}
    json.dumps(doc)  # must be JSON-clean


@pytest.mark.parametrize("name", GAMES, ids=os.path.basename)
def test_learner_tables_read_the_pair_table_bit_for_bit(name):
    """Each learner's tables hold the entries of its rows of ``v``, split at ``s_i``, bitwise."""
    game = resolve_game(name)[0]
    graph, _ = analyze_geometry(game)
    report = check_game(game, graph)
    assert report.pairs == graph.neighbor_pairs()
    for i, tables in enumerate(report.learner_tables):
        assert tables.neighbors == tuple(sorted(graph.neighbors[i]))
        assert len(tables.top) == game.signal_matrix(i).n_symbols
        assert sorted(tables.bottom) == [j for j in tables.neighbors if j != i]
        own = tables.neighbors.index(i)
        assert {row[own].hex() for row in tables.top} == {(0.0).hex()}
    for (i, j), v in zip(report.pairs, report.v):
        tables, split = report.learner_tables[i], game.signal_matrix(i).n_symbols
        pos = tables.neighbors.index(j)
        v = [x.hex() for x in v.tolist()]
        assert [row[pos].hex() for row in tables.top] == v[:split]
        assert tables.bottom[j][0] == pos
        assert [x.hex() for x in tables.bottom[j][1]] == v[split:]
