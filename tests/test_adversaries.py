import os

import numpy as np
import pytest
from conftest import gated_report

from pmsim import AdaptiveWorst, EngineConfig, FixedSequence, Game, IID, load_game, run

VORONOI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "voronoi_n16.json")


def test_fixed_sequence_indexing(bandit_mp):
    adv = FixedSequence([1, 0, 1])
    adv.bind(bandit_mp)
    assert adv.next_outcome(2, [0]) == 0
    assert adv.next_outcome(1, []) == 1
    with pytest.raises(IndexError):
        adv.next_outcome(4, [0, 1, 0])


def test_iid_frequencies(bandit_mp):
    adv = IID([0.5, 0.5])
    adv.bind(bandit_mp, np.random.default_rng(555))
    draws = [adv.next_outcome(t, []) for t in range(1, 100_001)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_iid_rejects_bad_distribution():
    with pytest.raises(ValueError):
        IID([0.7, 0.7])


def test_adaptive_worst_full_window(bandit_mp):
    adv = AdaptiveWorst()
    adv.bind(bandit_mp)
    history = [0] * 10
    # all plays were action 0, whose loss row is (0, 1): outcome 1 hurts most
    assert adv.next_outcome(11, history) == 1


def test_adaptive_worst_ties_to_smallest(bandit_mp):
    adv = AdaptiveWorst()
    adv.bind(bandit_mp)
    assert adv.next_outcome(1, []) == 0


def test_adaptive_worst_window_forgets(bandit_mp):
    adv = AdaptiveWorst(window=3)
    adv.bind(bandit_mp)
    adv.next_outcome(1, [])
    # old action-0 plays fall out of the window; the recent 1s dominate
    assert adv.next_outcome(9, [0, 0, 0, 0, 0, 1, 1, 1]) == 0


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
    """``totals.argmax()`` picks what the masked argmax picked, on list and array histories."""
    game = load_game(VORONOI)
    rng = np.random.default_rng(16)
    for trial in range(200):
        history = rng.integers(16, size=int(rng.integers(0, 60))).tolist()
        counts = np.bincount(history, minlength=16).astype(float)
        adv = AdaptiveWorst()
        adv.bind(game)
        got = adv.next_outcome(len(history) + 1, history if trial % 2 else np.array(history))
        assert got == _old_tie_break(counts, game.loss)


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
        got = adv.next_outcome(6, history)
        assert got == _old_tie_break(counts, loss) == (0 if front else worst)
