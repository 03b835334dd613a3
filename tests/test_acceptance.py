"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The horizon sweeps
(criteria 5, 6, 10) take several minutes, so the whole module is marked
``slow``: ``pytest -m "not slow"`` runs every other test.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from _mc import check_unbiased, family_band

from pmsim import (
    DegenerateGameError,
    DominatedActionError,
    Engine,
    EngineConfig,
    ExperimentConfig,
    analyze_geometry,
    best_response,
    build_graph,
    check_game,
    regret_curves,
    resolve_game,
    run_experiment,
    second_best,
    theorem_bound,
)
from pmsim.harness import make_adversary
from pmsim.learner import exp_weights_step
from pmsim.observability import solve_pairs

pytestmark = pytest.mark.slow

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

HORIZONS = [1000, 4000, 16000, 64000]
SEEDS = 20
SWEEP_KEYS = [(game, adv)
              for game in ("bandit_mp", "apple_tasting", "bandit_mp_random")
              for adv in ("uniform", "adaptive")]


def _ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


@pytest.fixture(scope="session")
def sweeps(tmp_path_factory):
    """All six horizon sweeps, run once and shared by criteria 5, 6, 10."""
    results = {}
    for game, adv in SWEEP_KEYS:
        out = tmp_path_factory.mktemp(f"sweep_{game}_{adv}")
        config = ExperimentConfig(game=game, adversary=adv, horizons=HORIZONS,
                                  seeds=SEEDS, checkpoints=HORIZONS, out_dir=str(out))
        results[(game, adv)] = run_experiment(config).summary
    return results


def _setup(name):
    game, _ = resolve_game(name)
    graph, _ = analyze_geometry(game)
    return game, graph, check_game(game, graph)


def test_criterion_1_flow_condition():
    worst_l1 = worst_linf = 0.0
    for name in ("bandit_mp", "bandit_mp_random", "apple_tasting", "full_info_3x3"):
        game, graph, observers = _setup(name)
        for adv_spec in ("uniform", "adaptive"):
            engine = Engine(game, make_adversary(adv_spec, game), 400,
                            EngineConfig(seed=17), observers=observers)
            engine.run()
            worst_l1 = max(worst_l1, engine.max_flow_residual_l1)
            worst_linf = max(worst_linf, engine.max_flow_residual_linf)
    assert worst_l1 <= 1e-9      # |Qp - p|_1 every round
    assert worst_linf <= 1e-9    # sum_k p_k q_k(i) = p_i coordinate-wise
    _ok(1, f"flow residuals l1<={worst_l1:.2e}, linf<={worst_linf:.2e} "
           "(every engine round re-checks at 1e-9)")


def test_criterion_2_estimator_unbiasedness():
    start = time.perf_counter()
    worst = 0.0
    for name in ("bandit_mp", "bandit_mp_random"):
        game, graph, observers = _setup(name)
        worst = max(worst, check_unbiased(
            game, graph, observers, qs=[[0.7, 0.3], [0.4, 0.6]],
            n_rounds=200_000, seed=2000))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(2, f"estimator means within 4 SE (worst {worst:.2f} SE, {elapsed:.1f}s)")


@pytest.mark.parametrize("name", ["noisy_voronoi_n8.json", "voronoi_n16.json"])
def test_criterion_2_unbiased_on_proper_neighbor_sets(name):
    """Criterion 2 where the paper's guarantee matters: N >= 3, neighbor sets short of all actions.

    ``noisy_voronoi_n8`` has random signals; ``voronoi_n16`` has 178 ordered
    neighbor pairs over 6 outcomes.  Each action's q is spread over its own
    neighbor set, half uniform and half a Dirichlet draw, so the
    importance weights differ by neighbor.  Every (pair, outcome) mean must sit
    within the family-wise band: the two-sided normal quantile at family-wise
    error 1e-3 over all of the game's (pair, outcome) tests, Bonferroni, about
    4.9 SE for ``voronoi_n16``'s 1068 tests and 4.5 SE for ``noisy_voronoi_n8``'s
    160.  A per-test 4 SE band would be crossed by chance in so many tests.
    """
    start = time.perf_counter()
    game, graph, observers = _setup(os.path.join(DATA, name))
    rng = np.random.default_rng(21)
    qs = []
    for nbrs in graph.neighbors:
        nbrs = sorted(nbrs)
        q = np.zeros(game.n_actions)
        q[nbrs] = 0.5 / len(nbrs) + 0.5 * rng.dirichlet(np.ones(len(nbrs)))
        qs.append(q)
    band = family_band(len(graph.neighbor_pairs()) * game.n_outcomes)
    worst = check_unbiased(game, graph, observers, qs, n_rounds=40_000, seed=2100, tol_se=band)
    elapsed = time.perf_counter() - start
    _ok(2, f"{name}: estimator means within the family-wise {band:.2f} SE band "
           f"(worst {worst:.2f} SE, {elapsed:.1f}s)")


def test_criterion_3_observability_classification():
    bandit, _, bandit_report = _setup("bandit_mp")
    v = solve_pairs(bandit, [(0, 1)])[0][0]
    np.testing.assert_allclose(v, [0.5, -0.5, 0.5, -0.5], atol=1e-9)
    pinv = np.linalg.pinv(bandit.stacked_signal_matrix(0, 1).T) @ (
        bandit.loss[1] - bandit.loss[0])
    np.testing.assert_allclose(v, pinv, atol=1e-9)
    assert bandit_report.locally_observable

    apple, _, apple_report = _setup("apple_tasting")
    assert apple_report.locally_observable
    assert np.abs(solve_pairs(apple, [(0, 1)])[0][0]).max() == pytest.approx(1.0, abs=1e-9)

    label, _, label_report = _setup("label_efficient")
    assert not label_report.locally_observable
    A = label.stacked_signal_matrix(1, 2).T
    target = (label.loss[2] - label.loss[1]).reshape(-1, 1)
    assert np.linalg.matrix_rank(np.hstack([A, target])) > np.linalg.matrix_rank(A)

    assert _setup("full_info_3x3")[2].locally_observable
    _ok(3, "bandit/apple/full-info observable with stated vectors; "
           "label-efficient rejected by the rank oracle")


def test_criterion_4_second_best_is_neighbor():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    games = 0
    while games < 500:
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        L = rng.random((n, m))
        grid = rng.dirichlet(np.ones(m), size=256).T
        if np.bincount((L @ grid).argmin(axis=0), minlength=n).min() == 0:
            continue  # cheap pre-filter; the strict gate has the final word
        try:
            graph, _ = build_graph(L)
        except (DominatedActionError, DegenerateGameError):
            continue
        games += 1
        checked = 0
        while checked < 100:
            q = rng.dirichlet(np.ones(m))
            values = np.sort(L @ q)
            if values[1] - values[0] < 1e-9 or (n > 2 and values[2] - values[1] < 1e-9):
                continue  # need unique best and second-best
            assert graph.are_neighbors(best_response(L, q).action, second_best(L, q))
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(4, f"500 games x 100 draws: second-best always neighbors best ({elapsed:.1f}s)")


def test_criterion_5_theorem_bound(sweeps):
    assert theorem_bound(2, 0.5, 10_000) == pytest.approx(815.7, abs=0.1)
    for game, adv in SWEEP_KEYS:
        if game == "bandit_mp_random":
            continue  # covered by criterion 10
        summary = sweeps[(game, adv)]
        for T, mean, bound in zip(summary["horizons"], summary["mean_int_regret"],
                                  summary["theorem_bound"]):
            assert mean <= bound, (game, adv, T, mean, bound)
    _ok(5, "mean internal regret under 4*N*v_bar*sqrt(6 ln(N) T) at every horizon "
           "for bandit_mp and apple_tasting vs iid and adaptive")


def test_criterion_6_sqrt_scaling(sweeps):
    slopes = {}
    for game, adv in SWEEP_KEYS:
        if game == "bandit_mp_random":
            continue
        slopes[(game, adv)] = sweeps[(game, adv)]["slope"]
        assert slopes[(game, adv)] <= 0.65, (game, adv, slopes[(game, adv)])
    _ok(6, "log-log slopes of mean internal regret vs T: "
           + ", ".join(f"{g}/{a}={s:.2f}" for (g, a), s in slopes.items()))


def test_criterion_7_regret_matches_rewrite_oracle():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        horizon = int(rng.integers(1, 51))
        L = rng.integers(0, 128, size=(n, m)) / 64.0  # dyadic grid: sums exact
        actions = rng.integers(n, size=horizon)
        outcomes = rng.integers(m, size=horizon)
        total = 0.0
        for a, o in zip(actions, outcomes):
            total += L[a, o]
        best = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rewritten = 0.0
                for a, o in zip(actions, outcomes):
                    rewritten += L[j if a == i else a, o]
                best = max(best, total - rewritten)
        graph, _ = analyze_geometry(L)
        curves = regret_curves(actions, outcomes, L, graph, [horizon])
        value = curves.internal[-1]
        assert value == best  # bit-exact on the dyadic grid
        assert curves.local_internal[-1] <= value
    _ok(7, "internal regret equals the departure-rewrite oracle exactly on 1000 "
           "transcripts; local never exceeds global")


def test_criterion_8_shift_invariance():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x = rng.dirichlet(np.ones(n))
        f = rng.normal(scale=8.0, size=n)
        c = rng.normal(scale=20.0)
        delta = np.abs(exp_weights_step(x, f, 0.4) - exp_weights_step(x, f + c, 0.4)).max()
        worst = max(worst, delta)
    assert worst <= 1e-12
    _ok(8, f"constant cost shifts move exponential weights by <= {worst:.1e}")


def test_criterion_9_determinism(tmp_path):
    blobs = []
    for attempt in ("first", "second"):
        config = ExperimentConfig(
            game="bandit_mp_random", adversary="iid:0.3,0.7", horizons=[500],
            seeds=2, out_dir=str(tmp_path / attempt))
        result = run_experiment(config)
        blobs.append([Path(p).read_bytes() for p in sorted(result.csv_paths)])
    assert blobs[0] == blobs[1]
    _ok(9, "identical config and seeds give byte-identical CSV output")


def test_criterion_10_random_signal_extension(sweeps):
    game, graph, observers = _setup("bandit_mp_random")
    worst = check_unbiased(game, graph, observers, qs=[[0.6, 0.4], [0.3, 0.7]],
                           n_rounds=200_000, seed=10_000)
    for adv in ("uniform", "adaptive"):
        summary = sweeps[("bandit_mp_random", adv)]
        for T, mean, bound in zip(summary["horizons"], summary["mean_int_regret"],
                                  summary["theorem_bound"]):
            assert mean <= bound, (adv, T, mean, bound)
        assert summary["slope"] <= 0.65
    _ok(10, f"random-signal bandit passes unbiasedness (worst {worst:.2f} SE), "
            "the theorem bound, and the slope check")
