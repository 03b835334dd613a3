import math
import tracemalloc

import numpy as np
import pytest

from pmsim import (
    NeighborhoodGraph,
    Transcript,
    analyze_geometry,
    regret_curves,
    regret_report,
    theorem_bound,
)
from pmsim.regret import RegretTracker


def make_transcript(actions, outcomes):
    actions = np.asarray(actions, dtype=np.intp)
    outcomes = np.asarray(outcomes, dtype=np.intp)
    return Transcript(k=actions, action=actions, outcome=outcomes,
                      symbol=np.zeros_like(actions))


def complete_graph(n):
    return NeighborhoodGraph(n_actions=n, neighbors=tuple(tuple(range(n)) for _ in range(n)),
                             margins={})


def report(transcript, L, graph=None, checkpoints=None):
    graph = complete_graph(L.shape[0]) if graph is None else graph
    return regret_report(transcript, L, graph, v_bar=1.0, checkpoints=checkpoints)


def oracle_internal(transcript, L):
    """Rewrite the transcript under every single-pair departure and re-sum."""
    n = L.shape[0]
    total = 0.0
    for a, o in zip(transcript.action, transcript.outcome):
        total += L[a, o]
    best, best_pair = 0.0, None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rewritten = 0.0
            for a, o in zip(transcript.action, transcript.outcome):
                rewritten += L[j if a == i else a, o]
            if total - rewritten > best:
                best, best_pair = total - rewritten, (i, j)
    return best, best_pair


def test_external_regret_example():
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    tr = make_transcript([0, 0, 1], [1, 1, 0])
    assert report(tr, L).external == 2.0


def test_external_regret_zero_when_playing_the_best_action():
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    tr = make_transcript([0, 0, 0], [0, 0, 0])
    assert report(tr, L).external == 0.0


def test_empty_transcript_is_an_error():
    with pytest.raises(ValueError):
        report(make_transcript([], []), np.eye(2))


def test_internal_regret_example():
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = report(make_transcript([0, 0, 1], [1, 1, 0]), L)
    assert r.internal == 2.0 and r.worst_departure == (0, 1)


def test_internal_regret_floors_at_zero():
    L = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = report(make_transcript([0], [0]), L)
    assert r.internal == 0.0 and r.worst_departure is None


def test_unplayed_actions_contribute_nothing():
    L = np.array([[0.0, 1.0], [1.0, 0.0], [0.9, 0.9]])
    tr = make_transcript([0, 1, 0], [0, 1, 1])
    oracle_value, _ = oracle_internal(tr, L)
    assert report(tr, L).internal == oracle_value  # departures from the unplayed row 2 are zero


def test_local_equals_internal_on_two_actions(bandit_mp):
    graph, _ = analyze_geometry(bandit_mp)
    rng = np.random.default_rng(0)
    for _ in range(20):
        tr = make_transcript(rng.integers(2, size=30).tolist(),
                             rng.integers(2, size=30).tolist())
        r = report(tr, bandit_mp.loss, graph)
        assert r.local_internal == r.internal


def test_local_restricted_to_neighbor_departures(three_action_loss):
    from pmsim import Game
    game = Game.deterministic(three_action_loss, [["0", "1"]] * 3)
    graph, _ = analyze_geometry(game)
    assert not graph.are_neighbors(0, 1)
    tr = make_transcript([0, 1, 0, 1], [1, 0, 1, 0])
    r = report(tr, three_action_loss, graph)
    internal, local = r.internal, r.local_internal
    # (0->1)/(1->0) rewrites are excluded locally; only the hedge row is adjacent
    expected_local = max(
        sum(three_action_loss[0, j] - three_action_loss[2, j]
            for a, j in zip(tr.action, tr.outcome) if a == 0),
        sum(three_action_loss[1, j] - three_action_loss[2, j]
            for a, j in zip(tr.action, tr.outcome) if a == 1),
        0.0,
    )
    assert local == pytest.approx(expected_local)
    assert local <= internal


def test_internal_matches_oracle_exactly_on_dyadic_losses():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        horizon = int(rng.integers(1, 51))
        L = rng.integers(0, 128, size=(n, m)) / 64.0  # dyadic: sums are exact
        tr = make_transcript(rng.integers(n, size=horizon).tolist(),
                             rng.integers(m, size=horizon).tolist())
        r = report(tr, L)
        oracle_value, oracle_pair = oracle_internal(tr, L)
        assert r.internal == oracle_value
        if r.internal > 0:
            assert r.worst_departure == oracle_pair


def test_internal_matches_oracle_on_continuous_losses():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n, horizon = int(rng.integers(2, 6)), int(rng.integers(1, 51))
        L = rng.random((n, 3))
        tr = make_transcript(rng.integers(n, size=horizon).tolist(),
                             rng.integers(3, size=horizon).tolist())
        assert report(tr, L).internal == pytest.approx(oracle_internal(tr, L)[0], abs=1e-12)


def test_appending_a_round_moves_internal_by_at_most_the_loss_span():
    rng = np.random.default_rng(5)
    L = rng.random((4, 3))
    span = L.max() - L.min()
    actions = rng.integers(4, size=40).tolist()
    outcomes = rng.integers(3, size=40).tolist()
    values = [report(make_transcript(actions[:t], outcomes[:t]), L).internal
              for t in range(1, 41)]
    for prev, cur in zip(values, values[1:]):
        assert abs(cur - prev) <= span + 1e-12


def test_theorem_bound_values():
    assert theorem_bound(2, 0.5, 10_000) == pytest.approx(815.66, abs=0.1)
    assert theorem_bound(2, 0.5, 0) == 0.0
    assert theorem_bound(2, 1.0, 10_000) == pytest.approx(2 * theorem_bound(2, 0.5, 10_000))
    assert theorem_bound(3, 0.5, 400) == pytest.approx(
        4 * 3 * 0.5 * math.sqrt(6 * math.log(3) * 400))


def test_regret_report_curves(bandit_mp):
    graph, _ = analyze_geometry(bandit_mp)
    tr = make_transcript([0, 1, 0, 1, 0], [1, 0, 1, 0, 1])
    report = regret_report(tr, bandit_mp.loss, graph, v_bar=0.5, checkpoints=[2, 5])
    assert report.checkpoints == [2, 5]
    assert len(report.curves["internal"]) == 2
    assert report.curves["internal"][-1] == report.internal
    assert report.internal >= report.local_internal >= 0.0
    assert report.theorem_bound == theorem_bound(2, 0.5, 5)


def random_graph(rng, n):
    """Symmetric neighbor sets, each action its own neighbor; some may have no others."""
    adjacent = np.triu(rng.random((n, n)) < 0.4, 1)
    adjacent |= adjacent.T | np.eye(n, dtype=bool)
    return NeighborhoodGraph(n_actions=n, margins={},
                             neighbors=tuple(tuple(np.flatnonzero(row).tolist())
                                             for row in adjacent))


def tracker_replay(actions, outcomes, L, graph, marks):
    """RegretTracker fed round by round, read at every round in ``marks``."""
    tracker = RegretTracker(L, graph)
    columns = {"t": [], "cum_loss": [], "external": [], "internal": [], "local_internal": []}
    pair = np.zeros((L.shape[0], L.shape[0]))
    for t, (a, j) in enumerate(zip(actions, outcomes), start=1):
        tracker.update(a, j)
        if t in marks:
            columns["t"].append(t)
            columns["cum_loss"].append(tracker.cum_loss)
            columns["external"].append(tracker.external())
            columns["internal"].append(tracker.internal()[0])
            columns["local_internal"].append(tracker.local_internal())
            pair = tracker.pair_sums.copy()
    return columns, pair


def test_regret_curves_match_tracker_bit_for_bit():
    rng = np.random.default_rng(2011)
    for case in range(120):
        n, m = int(rng.integers(2, 17)), int(rng.integers(2, 7))
        horizon = int(rng.integers(1, 160))
        L = rng.random((n, m))  # non-dyadic: every sum rounds
        L[rng.random((n, m)) < 0.1] = -0.0  # running sums must start from +0.0
        actions = rng.integers(n, size=horizon)
        outcomes = rng.integers(m, size=horizon)
        graph = random_graph(rng, n)
        checkpoints = [
            None,                                                    # every round
            (rng.permutation(horizon)[: max(1, horizon // 3)] + 1).tolist(),  # unsorted
            rng.integers(1, horizon + 1, size=12).tolist() * 2,                # duplicated
            [0, -3, horizon // 2 + 1, horizon, horizon + 1, 10 * horizon],  # beyond T
        ][case % 4]
        if checkpoints is None:
            marks = set(range(1, horizon + 1))
        else:
            marks = {int(t) for t in checkpoints if 1 <= t <= horizon}
        want, want_pair = tracker_replay(actions.tolist(), outcomes.tolist(), L, graph, marks)
        got = regret_curves(actions, outcomes, L, graph, checkpoints)
        assert got.t.tolist() == want["t"]
        for name in ("cum_loss", "external", "internal", "local_internal"):
            # bit for bit, signed zeros included
            assert getattr(got, name).tobytes() == np.array(want[name]).tobytes(), (case, name)
        assert got.pair.tobytes() == want_pair.tobytes()


def test_regret_report_matches_tracker_at_the_horizon():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n, m, horizon = int(rng.integers(2, 9)), int(rng.integers(2, 5)), int(rng.integers(1, 80))
        L = rng.random((n, m))
        tr = make_transcript(rng.integers(n, size=horizon), rng.integers(m, size=horizon))
        graph = random_graph(rng, n)
        tracker = RegretTracker(L, graph)
        for a, j in zip(tr.action, tr.outcome):
            tracker.update(a, j)
        # the horizon is not among these checkpoints
        r = report(tr, L, graph, checkpoints=[1, max(1, horizon // 2)])
        assert r.external == tracker.external()
        assert (r.internal, r.worst_departure) == tracker.internal()
        assert r.local_internal == tracker.local_internal()
        assert r.best_fixed_action == tracker.best_fixed_action()


def test_regret_curves_memory_stays_linear_in_the_horizon():
    n, m, horizon = 16, 6, 20_000
    rng = np.random.default_rng(16)
    L = rng.random((n, m))
    actions, outcomes = rng.integers(n, size=horizon), rng.integers(m, size=horizon)
    graph = random_graph(rng, n)
    tracemalloc.start()
    try:
        curves = regret_curves(actions, outcomes, L, graph, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curves.internal) == horizon
    # one T x N x N array of pair sums alone would take horizon * n * n * 8 = 41 MB
    assert peak < 12e6, peak
