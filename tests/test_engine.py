import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pmsim.engine
import pmsim.geometry
from pmsim import (
    Engine,
    EngineConfig,
    FixedPointError,
    FixedSequence,
    IID,
    NotLocallyObservableError,
    build_graph,
    check_game,
    fixed_point,
    make_adversary,
    resolve_game,
    run,
)
from pmsim.engine import FLOW_TOL, UNIFORM_BLOCK, sample_index

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_fixed_point_identical_columns():
    q = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(fixed_point(np.column_stack([q] * 3)), q, atol=1e-12)


def test_fixed_point_two_state_balance():
    Q = np.array([[0.7, 0.6], [0.3, 0.4]])
    np.testing.assert_allclose(fixed_point(Q), [2 / 3, 1 / 3], atol=1e-12)


def test_fixed_point_identity_ties_to_uniform():
    """A singular system: the one-argument form takes the fallback silently."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = fixed_point(np.eye(3))
    np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-12)
    assert np.geterr() == before


def test_fixed_point_reducible_fallback():
    # two closed classes: the direct system is singular, and the fallback
    # returns the limit of the damped chain from the uniform start, where the
    # transient state's third splits 0.4 : 0.6 between the two classes
    Q = np.array([
        [1.0, 0.0, 0.2],
        [0.0, 1.0, 0.3],
        [0.0, 0.0, 0.5],
    ])
    p = fixed_point(Q)
    assert np.abs(Q @ p - p).sum() <= 1e-9
    np.testing.assert_allclose(p, [1 / 3 + 0.4 / 3, 1 / 3 + 0.6 / 3, 0.0], atol=1e-12)


def test_fixed_point_periodic_chain():
    Q = np.array([[0.0, 1.0], [1.0, 0.0]])  # period-2 swap
    np.testing.assert_allclose(fixed_point(Q), [0.5, 0.5], atol=1e-9)


def test_fixed_point_rejects_non_stochastic():
    with pytest.raises(FixedPointError, match="non-stochastic"):
        fixed_point(np.array([[0.7, 0.6], [0.2, 0.4]]))
    with pytest.raises(FixedPointError):
        fixed_point(np.array([[1.1, 0.6], [-0.1, 0.4]]))


def test_fixed_point_residual_on_random_stochastic_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        Q = rng.random((n, n)) + 0.05
        Q /= Q.sum(axis=0)
        p = fixed_point(Q)
        assert np.abs(Q @ p - p).sum() <= 1e-9
        assert abs(p.sum() - 1.0) <= 1e-12 and np.all(p >= 0)


def test_sample_index_statistics():
    rng = np.random.default_rng(3)
    pmf = np.array([0.2, 0.0, 0.5, 0.3])
    counts = np.bincount([sample_index(rng, pmf) for _ in range(40_000)], minlength=4)
    assert counts[1] == 0
    np.testing.assert_allclose(counts / 40_000, pmf, atol=0.01)


def reference_sample_index(rng, pmf):
    """The engine's draw as a loop over the weights: one uniform, the last positive on rounding."""
    u = rng.random()
    acc = 0.0
    last = 0
    for i, w in enumerate(pmf.tolist()):
        if w > 0.0:
            acc += w
            if u < acc:
                return i
            last = i
    return last


def test_sample_index_matches_the_reference_loop():
    """Same index and same stream position, including past the total of a short pmf."""
    maker = np.random.default_rng(11)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for trial in range(20_000):
        n = int(maker.integers(2, 17))
        pmf = maker.random(n) * (maker.random(n) < 0.7)
        pmf[maker.integers(n)] = 0.0
        if pmf.sum() > 0.0:
            # most pmfs sum to 1 up to rounding; every fourth stops short of 1
            pmf /= pmf.sum() * (1.0 if trial % 4 else 1.25)
        assert sample_index(rng, pmf) == reference_sample_index(ref_rng, pmf)


def test_run_gates_unobservable_games(label_efficient):
    with pytest.raises(Exception) as exc_info:
        run(label_efficient, IID([0.5, 0.5]), 10)
    # the dominated action trips first under the strict gate; a report built
    # without that gate surfaces the observability failure instead
    assert exc_info.type.__name__ in ("DominatedActionError", "NotLocallyObservableError")

    from pmsim import analyze_geometry
    graph, _ = analyze_geometry(label_efficient)
    observers = check_game(label_efficient, graph)
    with pytest.raises(NotLocallyObservableError):
        Engine(label_efficient, IID([0.5, 0.5]), 10, observers=observers)


def test_handed_observers_solve_no_lp(monkeypatch):
    """``Engine`` and ``run`` handed a report neither build a graph nor solve an LP."""
    game, _ = resolve_game(os.path.join(DATA, "voronoi_n16.json"))
    observers = check_game(game, build_graph(game)[0])
    built = run(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2))

    def refuse(*args):
        raise AssertionError("the set-up was solved again")

    monkeypatch.setattr(pmsim.engine, "build_graph", refuse)
    monkeypatch.setattr(pmsim.geometry, "solve_lp", refuse)
    handed = run(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2),
                 observers=observers)
    engine = Engine(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2),
                    observers=observers)
    assert engine.observers is observers
    for tr in (handed, engine.run()):
        assert all(np.array_equal(x, y) for x, y in zip(tr, built))


def test_zero_horizon_gives_empty_transcript(bandit_mp):
    tr = run(bandit_mp, IID([0.5, 0.5]), 0, EngineConfig(seed=1))
    assert all(len(column) == 0 for column in tr)


def test_short_run_shape_and_losses(bandit_mp):
    tr = run(bandit_mp, IID([0.5, 0.5]), 10, EngineConfig(seed=7))
    assert [len(column) for column in tr] == [10] * 5
    assert set(tr.loss.tolist()) <= {0.0, 1.0}
    assert np.array_equal(tr.loss, bandit_mp.loss[tr.action, tr.outcome])


def test_first_round_is_symmetric(bandit_mp):
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 1, EngineConfig(seed=0))
    engine.step()
    np.testing.assert_allclose(engine.p, [0.5, 0.5], atol=1e-12)


def test_transcripts_are_deterministic(bandit_mp_random):
    cfg = EngineConfig(seed=1234)
    a = run(bandit_mp_random, IID([0.4, 0.6]), 300, cfg)
    b = run(bandit_mp_random, IID([0.4, 0.6]), 300, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = run(bandit_mp_random, IID([0.4, 0.6]), 300, EngineConfig(seed=1235))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_played_action_stays_in_sampled_neighborhood(three_action_loss):
    from pmsim import Game
    game = Game.deterministic(three_action_loss,
                              [["0", "1"]] * 3)  # full information, 3 actions
    graph, _ = build_graph(game)
    tr = Engine(game, IID([0.5, 0.5]), 500, EngineConfig(seed=5)).run()
    for k, a in zip(tr.k.tolist(), tr.action.tolist()):
        assert graph.are_neighbors(k, a)
        assert a in graph.neighbors[k]


class CyclingOutcomes:
    """Minimal deterministic adversary for flow checks."""

    needs_rng = False

    def bind(self, game, rng=None):
        self.game = game

    def next_outcome(self, t, history):
        return (t * 7) % self.game.n_outcomes


def test_flow_condition_holds_every_round(bandit_mp, apple_tasting):
    for game in (bandit_mp, apple_tasting):
        engine = Engine(game, CyclingOutcomes(), 400, EngineConfig(seed=11))
        engine.run()
        assert engine.max_flow_residual_l1 <= 1e-9


def test_q_constant_between_invocations(bandit_mp):
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 200, EngineConfig(seed=2))
    snapshots = [[lr.q.copy() for lr in engine.learners]]
    ks = []
    for t in range(200):
        engine.step()
        ks.append(engine.transcript.k[t])
        snapshots.append([lr.q.copy() for lr in engine.learners])
    for t in range(1, 201):
        for i in range(2):
            if i != ks[t - 1]:  # untouched learners keep their distribution
                np.testing.assert_array_equal(snapshots[t][i], snapshots[t - 1][i])


def test_fixed_sequence_drives_engine(bandit_mp):
    tr = run(bandit_mp, FixedSequence([1, 0] * 50), 100, EngineConfig(seed=3))
    assert tr.outcome.tolist() == [1, 0] * 50


@pytest.mark.parametrize("field, value", [
    ("eta", -1.0), ("eta", 0), ("eta", float("nan")), ("eta", float("inf")), ("eta", "fast"),
    ("gamma", -0.1), ("gamma", 1.5), ("gamma", float("nan")), ("gamma", None),
    ("seed", 1.5), ("seed", "3"), ("seed", -1), ("seed", True),
])
def test_engine_config_rejects_bad_fields(bandit_mp, field, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        run(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**{field: value}))
    with pytest.raises(ValueError, match=f"^{field}: "):
        Engine(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**{field: value}))


@pytest.mark.parametrize("kwargs", [
    dict(eta="auto", gamma="auto", seed=0), dict(eta=1e-3, gamma=0.0, seed=np.int64(7)),
    dict(eta=2, gamma=1.0, seed=2**40), dict(eta=1e308, gamma=0.5, seed=3),
])
def test_engine_config_accepts_valid_fields(bandit_mp, kwargs):
    tr = run(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**kwargs))
    assert len(tr.loss) == 5


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.floats(0.0, 0.9))
# a class leaking mass at rate 2e-9 into an absorbing state: the direct solve
# comes out 2e-11 negative, and the damped power iteration this fallback
# replaced stalled at residual 3.6e-9 for its whole 1e6-step budget
@example(n=12, seed=12, zeros=0.84375)
def test_fixed_point_on_random_column_stochastic_matrices(n, seed, zeros):
    """Sparse supports reach the reducible and slowly mixing chains the fallback solves."""
    rng = np.random.default_rng(seed)
    Q = rng.random((n, n)) * (rng.random((n, n)) >= zeros)
    Q[rng.integers(n, size=n), np.arange(n)] += 1e-3  # no all-zero column
    Q /= Q.sum(axis=0)
    p = fixed_point(Q)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.abs(Q @ p - p).sum() <= 1e-9


@pytest.mark.parametrize("name", ["voronoi_n16.json", "bandit3.json", "full_info_3x3"])
@pytest.mark.parametrize("adversary, gamma", [("adaptive", "auto"), ("adaptive", 0.0),
                                              ("uniform", "auto")])
def test_flow_system_tracks_q_every_round(name, adversary, gamma, monkeypatch):
    """Each round's residual is ``|Qp - p|`` for that round's Q, bit for bit.

    The residual maxima equal the maxima over every round's l1 and linf.
    """
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    engine = Engine(game, make_adversary(adversary, game), 120, EngineConfig(gamma=gamma, seed=4))
    l1, linf = [0.0], [0.0]
    while engine.t < engine.horizon:
        Q = engine.Q.copy()  # the round rewrites one column after it solves
        engine.step()
        assert np.array_equal(engine.residual, np.abs(Q.dot(engine.p) - engine.p)), engine.t
        l1.append(float(np.add.reduce(engine.residual)))
        linf.append(float(np.maximum.reduce(engine.residual)))
    assert len(set(engine.transcript.k.tolist())) > 1  # more than one column was rewritten
    assert engine.max_flow_residual_l1.hex() == max(l1).hex()
    assert engine.max_flow_residual_linf.hex() == max(linf).hex()


@pytest.mark.parametrize("fault", ["sum", "negative"])
def test_non_stochastic_column_raises_when_written(bandit_mp, fault, monkeypatch):
    """The column check runs on the column invoke returns, in the round it is written."""
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 20, EngineConfig(seed=6))
    real_invoke = pmsim.engine.invoke
    bad_round = 7

    def faulty_invoke(state, observers):
        q = real_invoke(state, observers).q.copy()
        if engine.t == bad_round:
            if fault == "sum":
                q[0] += 1e-6  # sums to 1 + 1e-6
            else:
                q[0], q[1] = -1e-6, q[1] + q[0] + 1e-6  # sums to 1, one entry -1e-6
        return SimpleNamespace(q=q)

    monkeypatch.setattr(pmsim.engine, "invoke", faulty_invoke)
    for _ in range(bad_round - 1):
        engine.step()
    with pytest.raises(FixedPointError) as exc_info:
        engine.step()
    assert engine.t == bad_round
    k = int(engine.transcript.k[bad_round - 1])
    assert str(exc_info.value).startswith(f"non-stochastic column {k} (sum ")


def test_engine_checks_every_column_when_built(bandit_mp, monkeypatch):
    real_make = pmsim.engine.make_learner

    def make_with_bad_column(i, *args):
        state = real_make(i, *args)
        if i == 1:
            state.q[1] += 1e-6
        return state

    monkeypatch.setattr(pmsim.engine, "make_learner", make_with_bad_column)
    with pytest.raises(FixedPointError, match=r"^non-stochastic column 1 \(sum "):
        Engine(bandit_mp, IID([0.5, 0.5]), 5)


def absorbing_engine(monkeypatch, horizon, fail_at=None):
    """An engine whose states 0 and 1 are absorbing, so its flow system is exactly singular.

    Columns 0 and 1 of Q start as unit vectors, and the patched ``invoke``
    writes ``e_k`` into every column k it rewrites; each column stays
    stochastic, but Q has two closed classes every round.  Returns the engine
    and a list of the rounds in which the closed-class fallback ran.
    """
    game, _ = resolve_game("full_info_3x3")
    engine = Engine(game, IID([1 / 3] * 3), horizon, EngineConfig(seed=8))
    unit = np.eye(game.n_actions)
    engine.Q[:, :2] = unit[:, :2]

    def unit_column(state, observers):
        if engine.t == fail_at:
            raise RuntimeError("invoke failed part-way")
        return SimpleNamespace(q=unit[state.action])

    fallback_rounds = []
    real_limit = pmsim.engine._limit_from_uniform

    def counted_limit(Q):
        fallback_rounds.append(engine.t)
        return real_limit(Q)

    monkeypatch.setattr(pmsim.engine, "invoke", unit_column)
    monkeypatch.setattr(pmsim.engine, "_limit_from_uniform", counted_limit)
    return engine, fallback_rounds


def test_singular_flow_system_takes_the_fallback_silently_in_run(monkeypatch):
    """Engine.run's errstate silences the singular solve and is restored after the run."""
    engine, fallback_rounds = absorbing_engine(monkeypatch, 60)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine.run()
    assert np.geterr() == before
    assert fallback_rounds == list(range(1, 61))
    assert engine.max_flow_residual_l1 <= FLOW_TOL
    assert set(engine.transcript.k.tolist()) == {0, 1}  # the two closed classes


def test_run_restores_errstate_when_a_round_raises(monkeypatch):
    engine, fallback_rounds = absorbing_engine(monkeypatch, 60, fail_at=30)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="invoke failed part-way"):
            engine.run()
    assert engine.t == 30 and fallback_rounds == list(range(1, 31))
    assert np.geterr() == before


def test_step_outside_run_warns_on_a_singular_system_and_falls_back(monkeypatch):
    engine, fallback_rounds = absorbing_engine(monkeypatch, 5)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in solve1"):
        engine.step()
    assert fallback_rounds == [1]
    assert engine.max_flow_residual_l1 <= FLOW_TOL


@pytest.mark.parametrize("name, adversary", [("bandit_mp_random", "uniform"),
                                             ("noisy3.json", "iid:0.6,0.4,0")])
def test_uniforms_drawn_in_blocks_leave_the_transcript_unchanged(name, adversary, monkeypatch):
    """Three engine uniforms a round plus the iid opponent's one, over several blocks.

    Rounds played by ``step()`` and then ``run()`` give one ``run()``'s
    transcript, and both give the transcript of an engine whose streams are
    the generators themselves, read one ``random()`` at a time.
    """
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    horizon = 4 * UNIFORM_BLOCK + 11  # 3 * horizon engine uniforms: not a whole number of blocks

    def engine():
        return Engine(game, make_adversary(adversary, game), horizon, EngineConfig(seed=5))

    whole = engine().run()
    split = engine()
    for _ in range(UNIFORM_BLOCK // 3 + 2):  # past the first engine block
        split.step()
    split.run()
    scalar = engine()
    scalar.rng, scalar.adversary.rng = (np.random.default_rng(ss)
                                        for ss in np.random.SeedSequence(5).spawn(2))
    scalar.run()
    for column, by_steps, by_scalars in zip(whole, split.transcript, scalar.transcript):
        assert np.array_equal(column, by_steps) and np.array_equal(column, by_scalars)
