"""Pins the lower-level numpy calls of the engine's round to the calls they replace.

The round calls LAPACK's ``solve1`` gufunc instead of ``np.linalg.solve``,
``Q.dot(p)`` instead of ``Q @ p`` and ``counts.dot(L)`` instead of
``counts @ L``, and draws its uniforms in blocks, ``Generator.random(n)``,
instead of one ``random()`` at a time.  The learner sums its weights with
:func:`~pmsim.learner.weight_total` instead of ``np.add.reduce`` and takes
``np.exp`` of a list instead of an array in place.  Set-up solves observers
as stacks through LAPACK's ``lstsq`` gufunc instead of one
``np.linalg.lstsq`` per pair, with one batched product for their
residuals, and the regret pass takes every checkpoint's ``loss @ c`` as one
stacked ``np.matmul``.  Each pair must agree bit for bit
(``np.array_equal``, or ``==`` on Python floats), so a numpy upgrade that
changes one of them fails here rather than in a digest.
"""

import glob
import os

import numpy as np
import pytest
from conftest import gated_report
from numpy.linalg import _umath_linalg

from pmsim import Engine, EngineConfig, catalog, make_adversary, resolve_game
from pmsim.engine import UNIFORM_BLOCK, BlockUniforms, flow_system
from pmsim.games import game_from_dict
from pmsim.learner import weight_total
from pmsim.observability import lstsq_stack, solve_pairs

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def solve1(A, rhs):
    return _umath_linalg.solve1(A, rhs, signature="dd->d")


def unit_rhs(n):
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return rhs


def random_stochastic(rng, n, zeros):
    Q = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    Q[rng.integers(n, size=n), np.arange(n)] += 1e-3  # no all-zero column
    return Q / Q.sum(axis=0)


@pytest.mark.parametrize("n", [3, 5, 8, 16, 23])
def test_solve1_and_dot_match_numpy_on_random_flow_systems(n):
    rng = np.random.default_rng(n)
    for trial in range(300):
        Q = random_stochastic(rng, n, zeros=0.5 * (trial % 2))
        A, rhs = flow_system(Q), unit_rhs(n)
        with np.errstate(invalid="ignore"):
            p = solve1(A, rhs)
        try:
            expected = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:  # a sparse draw can make Q reducible
            assert np.isnan(p).all(), (n, trial)
            continue
        assert np.array_equal(p, expected), (n, trial)
        assert np.array_equal(Q.dot(p), Q @ p), (n, trial)


@pytest.mark.parametrize("name", ["voronoi_n16.json", "bandit3.json"])
def test_solve1_and_dot_match_numpy_on_engine_systems(name, monkeypatch):
    """Every round's flow system, ``Q`` and ``p`` of an adaptive run, as the engine solves them."""
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    engine = Engine(game, make_adversary("adaptive", game), 200, EngineConfig(seed=3),
                    observers=gated_report(game))
    rhs = unit_rhs(game.n_actions)
    while engine.t < engine.horizon:
        A = flow_system(engine.Q)
        p = solve1(A, rhs)
        assert np.array_equal(p, np.linalg.solve(A, rhs)), (name, engine.t)
        engine.step()
        assert np.array_equal(engine.Q.dot(engine.p), engine.Q @ engine.p), (name, engine.t)


def test_solve1_returns_nan_without_raising_on_a_singular_system():
    A = flow_system(np.eye(4))  # every state absorbing: rows 0..2 are zero
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, unit_rhs(4))
    with np.errstate(invalid="ignore"):
        p = solve1(A, unit_rhs(4))
    assert p.shape == (4,) and np.isnan(p).all()


def test_counts_dot_loss_matches_matmul_on_the_voronoi_game():
    L = resolve_game(os.path.join(DATA, "voronoi_n16.json"))[0].loss
    rng = np.random.default_rng(16)
    for trial in range(2000):
        counts = rng.integers(0, 10 ** rng.integers(1, 6), size=L.shape[0]).astype(float)
        assert np.array_equal(counts.dot(L), counts @ L), trial


@pytest.mark.parametrize("seed", [0, 5, 7, 2 ** 40])
def test_uniform_blocks_match_scalar_draws_on_the_engine_streams(seed):
    """``random(n)`` gives n ``random()`` values in order, across blocks of any size."""
    def streams():
        return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(2)]

    sizes = [UNIFORM_BLOCK, 1, 37, UNIFORM_BLOCK, 300]
    for blocked, scalar, wrapped in zip(streams(), streams(), streams()):
        drawn = np.concatenate([blocked.random(n) for n in sizes]).tolist()
        assert drawn == [scalar.random() for _ in drawn]
        wrapped = BlockUniforms(wrapped)
        assert drawn == [wrapped.random() for _ in drawn]


@pytest.mark.parametrize("n", list(range(1, 41)) + [63, 64, 65, 127, 128, 129, 200])
def test_weight_total_matches_add_reduce(n):
    rng = np.random.default_rng(n)
    for trial in range(200):
        w = rng.random(n) * 10.0 ** rng.uniform(-300, 300, size=n)
        if trial % 4 == 1:  # one scale, so many entries round into the sum
            w = rng.random(n) * 10.0 ** rng.uniform(-300, 300)
        w[rng.random(n) < 0.2] = 0.0
        subnormal = rng.random(n) < 0.1
        w[subnormal] = 5e-324 * rng.integers(1, 2 ** 40, size=int(subnormal.sum()))
        assert weight_total(w.tolist()) == np.add.reduce(w), (n, trial)


def test_exp_of_a_list_matches_exp_in_place():
    """``np.exp(list).tolist()``, as ``invoke`` takes it, against the array form."""
    rng = np.random.default_rng(7)
    for trial in range(3000):
        n = int(rng.integers(1, 41))
        z = -rng.random(n) * 10.0 ** rng.uniform(-8, 3.5)
        z[rng.random(n) < 0.1] = 0.0
        w = z - max(z.tolist())
        shifted = w.tolist()
        np.exp(w, out=w)
        assert np.exp(shifted).tolist() == w.tolist(), trial


def voronoi_game(seed: int):
    """Seeded Voronoi game of N = 3 to 16 actions; odd seeds mix blind, coarse and full rows."""
    n, m = 3 + seed % 14, 3 + seed % 4
    centers = np.random.default_rng(seed).dirichlet(np.ones(m), size=n)
    loss = ((np.eye(m)[None] - centers[:, None]) ** 2).sum(axis=2)
    rows = [[str(j) for j in range(m)], ["*"] * m, [str(j % 2) for j in range(m)]]
    signals = [rows[(i % 3) * (seed % 2)] for i in range(n)]
    return game_from_dict({"loss": loss.tolist(), "signals": signals})


PIN_GAMES = {
    **{entry.name: entry.game for entry in catalog()},
    **{os.path.basename(path): resolve_game(path)[0]
       for path in sorted(glob.glob(os.path.join(DATA, "*.json")))},
    **{f"voronoi_s{seed}": voronoi_game(seed) for seed in range(20)},
}


def pairs_by_shape(game):
    """Every ordered pair of distinct actions, grouped by the two actions' symbol counts."""
    groups = {}
    for i in range(game.n_actions):
        for j in range(game.n_actions):
            if i != j:
                shape = (game.signal_matrix(i).n_symbols, game.signal_matrix(j).n_symbols)
                groups.setdefault(shape, []).append((i, j))
    return groups.values()


@pytest.mark.parametrize("name", sorted(PIN_GAMES))
def test_stacked_lstsq_and_residuals_match_per_pair_calls(name):
    game = PIN_GAMES[name]
    for pairs in pairs_by_shape(game):
        stacked = np.array([game.stacked_signal_matrix(i, j) for i, j in pairs])
        targets = np.array([game.loss[j] - game.loss[i] for i, j in pairs])
        v = lstsq_stack(stacked.transpose(0, 2, 1), targets)
        products = np.matmul(stacked.transpose(0, 2, 1), v[..., None])[..., 0]
        for k, (i, j) in enumerate(pairs):
            ref = np.linalg.lstsq(stacked[k].T, targets[k], rcond=None)[0]
            assert np.array_equal(v[k], ref), (name, i, j)
            assert np.array_equal(products[k], stacked[k].T @ ref), (name, i, j)


@pytest.mark.parametrize("name", sorted(PIN_GAMES))
def test_solved_observers_match_the_per_pair_solution(name):
    """``solve_pairs``'s v, residual and verdict are those of one ``np.linalg.lstsq`` per pair."""
    game = PIN_GAMES[name]
    for pairs in pairs_by_shape(game):
        for (i, j), got_v, got_residual, got_observable in zip(pairs, *solve_pairs(game, pairs)):
            stacked = game.stacked_signal_matrix(i, j)
            target = game.loss[j] - game.loss[i]
            v = np.linalg.lstsq(stacked.T, target, rcond=None)[0]
            residual = float(np.abs(stacked.T @ v - target).max())
            assert got_v.tobytes() == v.tobytes() and float(got_residual).hex() == residual.hex()
            assert got_observable == (residual <= 1e-8 * (1.0 + float(np.abs(target).max())))


@pytest.mark.parametrize("name", sorted(PIN_GAMES))
def test_stacked_checkpoint_products_match_loss_at_counts(name):
    """The regret pass's stacked ``loss @ c``, on cumulative outcome counts of long runs."""
    loss = PIN_GAMES[name].loss
    m = loss.shape[1]
    rng = np.random.default_rng(m)
    for horizon in (50, 1000, 64_000):
        counts = np.cumsum(np.eye(m)[rng.integers(m, size=horizon)], axis=0)
        stacked = np.matmul(loss, counts[:, :, None])[:, :, 0]
        assert all(np.array_equal(row, loss @ c) for row, c in zip(stacked, counts)), horizon
