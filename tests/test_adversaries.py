import numpy as np
import pytest

from pmsim import AdaptiveWorst, EngineConfig, FixedSequence, IID, run


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
    runs = {}
    for gamma in (0.0, 0.25):
        tr = run(bandit_mp, IID([0.3, 0.7]), 400, EngineConfig(gamma=gamma, seed=9))
        runs[gamma] = tr.outcome.tolist()
    assert runs[0.0] == runs[0.25]
