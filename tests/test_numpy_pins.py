"""Pins the lower-level numpy calls of the engine's round to the calls they replace.

The round calls LAPACK's ``solve1`` gufunc instead of ``np.linalg.solve``,
``Q.dot(p)`` instead of ``Q @ p`` and ``counts.dot(L)`` instead of
``counts @ L``, and draws its uniforms in blocks, ``Generator.random(n)``,
instead of one ``random()`` at a time.  Each pair must agree bit for bit
(``np.array_equal``, or ``==`` on Python floats), so a numpy upgrade that
changes one of them fails here rather than in a digest.
"""

import os

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from pmsim import Engine, EngineConfig, make_adversary, resolve_game
from pmsim.engine import UNIFORM_BLOCK, BlockUniforms, flow_system

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
    """Every round's ``A``, ``Q`` and ``p`` of an adaptive run, as the engine holds them."""
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    engine = Engine(game, make_adversary("adaptive", game), 200, EngineConfig(seed=3))
    rhs = unit_rhs(game.n_actions)
    while engine.t < engine.horizon:
        p = solve1(engine.A, rhs)
        assert np.array_equal(p, np.linalg.solve(engine.A, rhs)), (name, engine.t)
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
