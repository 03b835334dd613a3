import os

import numpy as np
import pytest
from conftest import gated_report

from pmsim import AdaptiveWorst, EngineConfig, FixedSequence, Game, IID, load_game, run

VORONOI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "voronoi_n16.json")


def play(adv, actions):
    """Feed ``actions`` one per round, as the engine does; returns every round's move.

    Round t's call gets round t - 1's action, so the last move answers all of ``actions``.
    """
    return [adv.next_outcome(t, last) for t, last in enumerate([None] + list(actions), start=1)]


def test_fixed_sequence_indexing(bandit_mp):
    adv = FixedSequence([1, 0, 1])
    adv.bind(bandit_mp)
    assert adv.next_outcome(2, 0) == 0
    assert adv.next_outcome(1, None) == 1
    with pytest.raises(IndexError):
        adv.next_outcome(4, 0)


def test_iid_frequencies(bandit_mp):
    adv = IID([0.5, 0.5])
    adv.bind(bandit_mp, np.random.default_rng(555))
    draws = [adv.next_outcome(t, None) for t in range(1, 100_001)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_iid_rejects_bad_distribution():
    with pytest.raises(ValueError):
        IID([0.7, 0.7])


def test_adaptive_worst_full_window(bandit_mp):
    adv = AdaptiveWorst()
    adv.bind(bandit_mp)
    # all plays were action 0, whose loss row is (0, 1): outcome 1 hurts most
    assert play(adv, [0] * 10)[-1] == 1


def test_adaptive_worst_ties_to_smallest(bandit_mp):
    adv = AdaptiveWorst()
    adv.bind(bandit_mp)
    assert adv.next_outcome(1, None) == 0


def test_adaptive_worst_window_forgets(bandit_mp):
    adv = AdaptiveWorst(window=3)
    adv.bind(bandit_mp)
    moves = play(adv, [0, 0, 0, 0, 0, 1, 1, 1])
    # old action-0 plays fall out of the window; the recent 1s dominate
    assert moves[5] == 1 and moves[-1] == 0


def test_iid_outcomes_independent_of_learner_parameters(bandit_mp):
    runs, observers = {}, gated_report(bandit_mp)
    for gamma in (0.0, 0.25):
        tr = run(bandit_mp, IID([0.3, 0.7]), 400, EngineConfig(gamma=gamma, seed=9),
                 observers=observers)
        runs[gamma] = tr.outcome.tolist()
    assert runs[0.0] == runs[0.25]


def _old_tie_break(counts, loss):
    totals = counts @ loss
    return int(np.argmax(totals == totals.max()))


def test_adaptive_worst_tie_break_on_voronoi_counts():
    """``totals.argmax()`` picks what the masked argmax picked."""
    game = load_game(VORONOI)
    rng = np.random.default_rng(16)
    for trial in range(200):
        history = rng.integers(16, size=int(rng.integers(0, 60))).tolist()
        counts = np.bincount(history, minlength=16).astype(float)
        adv = AdaptiveWorst()
        adv.bind(game)
        assert play(adv, history)[-1] == _old_tie_break(counts, game.loss)


@pytest.mark.parametrize("window", [None, 3])
def test_adaptive_worst_fed_one_action_plays_the_recount_of_its_window(window):
    """Every move equals the argmax of the window's counts recounted from the whole history."""
    game = load_game(VORONOI)
    rng = np.random.default_rng(23)
    for trial in range(200):
        history = rng.integers(16, size=int(rng.integers(0, 60))).tolist()
        adv = AdaptiveWorst(window=window)
        adv.bind(game)
        for t, move in enumerate(play(adv, history), start=1):
            recent = history[:t - 1][-window:] if window else history[:t - 1]
            counts = np.bincount(recent, minlength=16).astype(float)
            assert move == counts.dot(game.loss).argmax(), (trial, t)


@pytest.mark.parametrize("front", [False, True])
def test_adaptive_worst_exact_ties_go_to_the_smallest_outcome(front):
    """Repeating an action's worst column ties two totals exactly; the smaller index wins."""
    L = load_game(VORONOI).loss
    for a in range(16):
        worst = int(L[a].argmax())
        loss = np.column_stack([L[:, worst], L]) if front else np.column_stack([L, L[:, worst]])
        game = Game.deterministic(loss, [["x"] * loss.shape[1]] * 16)
        adv = AdaptiveWorst()
        adv.bind(game)
        history = [a] * 5
        counts = np.bincount(history, minlength=16).astype(float)
        totals = counts @ loss
        assert (totals == totals.max()).sum() == 2  # an exact tie
        got = play(adv, history)[-1]
        assert got == _old_tie_break(counts, loss) == (0 if front else worst)
