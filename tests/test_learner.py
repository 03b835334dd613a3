import os

import numpy as np
import pytest
from _mc import check_unbiased, estimate_b
from conftest import gated_report

import pmsim.engine
import pmsim.learner
from pmsim import AdaptiveWorst, Engine, EngineConfig, analyze_geometry, catalog, check_game, \
    resolve_game
from pmsim.games import load_game
from pmsim.learner import (
    LearnerState,
    add_round,
    exp_weights_step,
    invoke,
    make_learner,
)
from pmsim.observability import LearnerTables

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture(scope="module")
def bandit_setup(bandit_mp):
    graph, _ = analyze_geometry(bandit_mp)
    return bandit_mp, graph, check_game(bandit_mp, graph)


@pytest.fixture(scope="module")
def apple_setup(apple_tasting):
    graph, _ = analyze_geometry(apple_tasting)
    return apple_tasting, graph, check_game(apple_tasting, graph)


def _learners(graph, obs, eta, gamma):
    n = len(graph.neighbors)
    return [make_learner(i, n, eta, gamma, obs) for i in range(n)]


def _symbol(game, played, outcome):
    return game.observe(played, outcome, np.random.default_rng(0))


def test_estimate_b_zero_when_uninvolved(bandit_setup):
    game, graph, obs = bandit_setup
    state = _learners(graph, obs, eta=0.1, gamma=0.1)[0]
    sym = _symbol(game, 1, 0)  # I != 0 and k != 0
    assert estimate_b(state, 1, 1, sym, state.q, 0) == 0.0
    assert estimate_b(state, 1, 1, sym, state.q, 1) == 0.0


def test_estimate_b_importance_weighted_branch(bandit_setup):
    game, graph, obs = bandit_setup
    state = _learners(graph, obs, eta=0.1, gamma=0.1)[0]
    sym = _symbol(game, 1, 0)
    q = np.array([0.75, 0.25])
    # own-action block silent; neighbor block reads signal "1" (index 0 of row 1)
    expected = state.tables.bottom[1][1][sym] / 0.25
    assert expected != 0.0
    assert estimate_b(state, 0, 1, sym, q, 1) == expected
    assert estimate_b(state, 0, 1, sym, q, 0) == 0.0  # self-estimate always zero


def test_estimate_b_own_play_branch(bandit_setup):
    game, graph, obs = bandit_setup
    state = _learners(graph, obs, eta=0.1, gamma=0.1)[0]
    sym = _symbol(game, 0, 1)
    expected = state.tables.top[sym][state.tables.neighbors.index(1)]
    assert expected != 0.0
    assert estimate_b(state, 1, 0, sym, state.q, 1) == expected


def test_estimate_b_zero_probability_is_fatal(bandit_setup):
    game, graph, obs = bandit_setup
    state = _learners(graph, obs, eta=0.1, gamma=0.0)[0]
    with pytest.raises(RuntimeError, match="zero probability"):
        estimate_b(state, 0, 1, _symbol(game, 1, 0), np.array([1.0, 0.0]), 1)


def test_estimate_b_uses_snapshot_not_current_q(bandit_setup):
    game, graph, obs = bandit_setup
    state = _learners(graph, obs, eta=0.1, gamma=0.1)[0]
    sym = _symbol(game, 1, 0)
    state.q = np.array([0.99, 0.01])  # the round's own q is passed, not the learner's
    expected = state.tables.bottom[1][1][sym] / 0.5
    assert estimate_b(state, 0, 1, sym, np.array([0.5, 0.5]), 1) == expected


def test_aggregate_two_hand_computed_rounds(bandit_setup):
    game, graph, obs = bandit_setup
    learners = _learners(graph, obs, eta=0.1, gamma=0.0)
    add_round(learners, 1, 1, 0, _symbol(game, 0, 1))
    add_round(learners, 2, 0, 1, _symbol(game, 1, 0))  # learner 0's q is [0.5, 0.5]
    # round 1: top block of v=(.5,-.5,.5,-.5) reads symbol "1" -> -0.5
    # round 2: bottom block reads symbol "1" -> +0.5, importance weight 1/0.5
    state = learners[0]
    assert state.f[1] == pytest.approx(-0.5 + 0.5 / 0.5)
    assert state.f[0] == 0.0
    assert state.buffer == [1, 2]


def test_aggregate_blind_self_round_is_all_zero(apple_setup):
    # the blind row's observer block is zero, so self-play rounds teach nothing
    game, graph, obs = apple_setup
    learners = _learners(graph, obs, eta=0.1, gamma=0.0)
    add_round(learners, 1, 0, 0, _symbol(game, 0, 1))
    np.testing.assert_allclose(learners[0].f, [0.0, 0.0], atol=1e-12)
    assert learners[0].buffer == [1] and not learners[1].buffer


EXACTNESS_GAMES = [e.name for e in catalog() if e.expected_observable] + [
    "voronoi_n16.json", "bandit3.json"]


@pytest.mark.parametrize("name", EXACTNESS_GAMES)
def test_running_costs_equal_summed_estimates(name, monkeypatch):
    """Before every invocation, f is the round-order sum of ``_mc.estimate_b``, bit for bit."""
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    horizon = 150 if game.n_actions > 3 else 400
    engine = Engine(game, AdaptiveWorst(), horizon, EngineConfig(seed=3),
                    observers=gated_report(game))
    tr = engine.transcript
    real_invoke = pmsim.engine.invoke
    checked = []

    def checking_invoke(state, observers):
        for pos, j in enumerate(state.tables.neighbors):
            expected = 0.0
            for t in state.buffer:
                expected += estimate_b(state, int(tr.k[t - 1]), int(tr.action[t - 1]),
                                       int(tr.symbol[t - 1]), state.q, j)
            assert state.f[pos] == expected, (name, engine.t, state.action, j)
        checked.append(len(state.buffer))
        return real_invoke(state, observers)

    monkeypatch.setattr(pmsim.engine, "invoke", checking_invoke)
    engine.run()
    assert len(checked) == horizon and min(checked) >= 1
    assert np.any(tr.k != tr.action)  # the importance-weighted branch was reached


def test_invoke_keeps_distribution_invariants_on_random_costs():
    game = load_game(os.path.join(DATA, "voronoi_n16.json"))
    graph, _ = analyze_geometry(game)
    obs = check_game(game, graph)
    rng = np.random.default_rng(12)
    for trial in range(300):
        eta = float(10.0 ** rng.uniform(-4, 1)) if trial % 10 else 1e308
        gamma = float(rng.choice([0.0, rng.uniform(0, 0.5), 1.0]))
        i = int(rng.integers(16))
        state = make_learner(i, 16, eta, gamma, obs)
        n = len(state.tables.neighbors)
        for _ in range(5):
            state.f[:] = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
            with np.errstate(over="ignore", invalid="ignore"):
                invoke(state, obs)
            assert abs(np.asarray(state.x).sum() - 1.0) <= 1e-12
            assert abs(np.asarray(state.q).sum() - 1.0) <= 1e-12
            assert np.asarray(state.q)[list(state.tables.neighbors)].min() >= gamma / n - 1e-12
            assert not np.asarray(state.f).any() and not state.buffer


def random_invocation(rng, n, kind):
    """(x, f, eta) for one invocation over n neighbors; ``kind`` picks which path it takes."""
    x = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.8)
    if not x.any():
        x[rng.integers(n)] = 1.0
    x = x / x.sum()
    if kind == "finite":
        return x, rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n), 10.0 ** rng.uniform(-4, 1)
    if kind == "overflow":  # the largest exponent, -eta * min(f), overflows
        f = rng.normal(size=n)
        f[rng.integers(n)] = -2.0 - rng.random()
        return x, f, 1e308
    # every live weight underflows: x's support sits 800 below a dead entry's exponent
    if x.all():
        x[0] = 0.0
        x = x / x.sum()
    dead = int(np.flatnonzero(x == 0.0)[0])
    f = 800.0 + rng.random(n) * 10.0
    f[dead] = 0.0
    return x, f, 1.0


@pytest.mark.parametrize("n", range(1, 21))
def test_invoke_matches_exp_weights_step_and_mixing(n, monkeypatch):
    """The float round gives the bits of ``exp_weights_step`` and the array mixing of q."""
    fallbacks = []
    real_step = pmsim.learner.exp_weights_step

    def counting_step(x, f, eta):
        fallbacks.append(eta)
        return real_step(x, f, eta)

    monkeypatch.setattr(pmsim.learner, "exp_weights_step", counting_step)
    rng = np.random.default_rng(100 + n)
    n_actions = n + 3
    finite_fallbacks = 0
    for trial in range(150):
        # a single entry cannot underflow while another keeps the maximum exponent
        kinds = ["finite", "overflow", "underflow"][:3 if n > 1 else 2]
        kind = kinds[trial % len(kinds)]
        x, f, eta = random_invocation(rng, n, kind)
        gamma = float(rng.choice([0.0, rng.uniform(0, 0.5), 1.0]))
        nbrs = np.sort(rng.choice(n_actions, size=n, replace=False))
        q = rng.random(n_actions)
        state = LearnerState(action=int(nbrs[0]), x=x.tolist(), q=q.tolist(),
                             eta=eta, gamma=gamma, f=f.tolist(),
                             tables=LearnerTables(tuple(nbrs.tolist()), (), {}))
        with np.errstate(over="ignore", invalid="ignore"):
            expected_x = real_step(x, f, eta)
            invoke(state, None)
        expected_q = q.copy()
        expected_q[nbrs] = (1.0 - gamma) * expected_x + gamma / n
        assert [v.hex() for v in state.x] == [v.hex() for v in expected_x.tolist()], (n, trial)
        assert [v.hex() for v in state.q] == [v.hex() for v in expected_q.tolist()], (n, trial)
        assert state.f == [0.0] * n
        if kind == "finite":
            finite_fallbacks += len(fallbacks)
        else:
            assert len(fallbacks) == 1, (n, trial, kind)
        fallbacks.clear()
    assert finite_fallbacks < 10  # the random finite costs mostly take the float path


def test_exp_weights_identity_on_zero_costs():
    x = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(exp_weights_step(x, np.zeros(3), eta=0.7), x, atol=1e-15)


def test_exp_weights_closed_form():
    x = np.array([0.5, 0.5])
    out = exp_weights_step(x, np.array([1.0, 0.0]), eta=np.log(2.0))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)


def test_exp_weights_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = rng.dirichlet(np.ones(n))
        f = rng.normal(scale=5.0, size=n)
        c = rng.normal(scale=10.0)
        a = exp_weights_step(x, f, eta=0.3)
        b = exp_weights_step(x, f + c, eta=0.3)
        assert np.abs(a - b).max() <= 1e-12


def test_invoke_zero_costs_keeps_uniform(apple_setup):
    game, graph, obs = apple_setup
    learners = _learners(graph, obs, eta=0.5, gamma=0.0)
    add_round(learners, 1, 0, 0, _symbol(game, 0, 1))
    state = invoke(learners[0], obs)
    np.testing.assert_allclose(state.q, [0.5, 0.5], atol=1e-15)
    assert not np.asarray(state.f).any() and not state.buffer


def test_invoke_gamma_mixing(bandit_setup):
    game, graph, obs = bandit_setup
    learners = _learners(graph, obs, eta=1.0, gamma=0.2)
    state = learners[0]
    # huge relative cost for the neighbor drives x' to a corner exactly
    add_round(learners, 1, 0, 0, _symbol(game, 0, 1))
    state.q = np.array([0.5, 1e-6])
    add_round(learners, 2, 0, 1, _symbol(game, 1, 0))
    invoke(state, obs)
    np.testing.assert_allclose(state.x, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(state.q, [0.9, 0.1], atol=1e-12)


def test_invoke_gamma_zero_means_q_equals_x(bandit_setup):
    game, graph, obs = bandit_setup
    learners = _learners(graph, obs, eta=0.5, gamma=0.0)
    add_round(learners, 1, 0, 1, _symbol(game, 1, 0))
    state = invoke(learners[0], obs)
    np.testing.assert_array_equal(state.q, state.x)


def test_invoke_restores_distribution_invariants(bandit_setup):
    game, graph, obs = bandit_setup
    rng = np.random.default_rng(4)
    learners = _learners(graph, obs, eta=0.8, gamma=0.3)
    state = learners[0]
    for t in range(1, 60):
        k = int(rng.integers(2))
        played = int(rng.integers(2))
        add_round(learners, t, k, played, _symbol(game, played, int(rng.integers(2))))
        if k == 0:
            invoke(state, obs)
            assert abs(np.asarray(state.q).sum() - 1.0) <= 1e-12
            assert abs(np.asarray(state.x).sum() - 1.0) <= 1e-12
            assert np.all(np.asarray(state.q)[list(state.tables.neighbors)] >= 0.3 / 2 - 1e-15)
            mixed = (1 - 0.3) * np.asarray(state.x) + 0.3 / 2
            np.testing.assert_array_equal(np.asarray(state.q)[list(state.tables.neighbors)],
                                          mixed)


def test_exp_weights_overflow_takes_the_eta_limit():
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(
            exp_weights_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1e308), [0.0, 1.0])
        # ties share the mass in proportion to x; entries outside x's support stay at zero
        np.testing.assert_allclose(exp_weights_step(
            np.array([0.2, 0.3, 0.5, 0.0]), np.array([-2.0, -2.0, 1.0, -5.0]), 1e308),
            [0.4, 0.6, 0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(
            exp_weights_step(np.array([0.5, 0.5]), np.array([3.0, 2.0]), 1e308), [0.0, 1.0])
        np.testing.assert_array_equal(
            exp_weights_step(np.array([0.5, 0.5]), np.array([-5.0, -3.0]), 1e308), [1.0, 0.0])


def test_exp_weights_underflow_renormalizes_over_the_support():
    # x's only live entry sits 1000 below the dead one's exponent: exp underflows to 0
    out = exp_weights_step(np.array([0.0, 0.7, 0.3]), np.array([0.0, 1000.0, 1000.5]), 1.0)
    np.testing.assert_allclose(out, [0.0, 0.7, 0.3 * np.exp(-0.5)] / (0.7 + 0.3 * np.exp(-0.5)),
                               rtol=1e-14)


def test_estimator_unbiased_small_scale(bandit_setup):
    game, graph, obs = bandit_setup
    check_unbiased(game, graph, obs, qs=[[0.7, 0.3], [0.4, 0.6]],
                   n_rounds=30_000, seed=100)
