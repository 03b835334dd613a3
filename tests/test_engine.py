import ast
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import gated_report
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
    analyze_geometry,
    build_graph,
    check_game,
    fixed_point,
    make_adversary,
    resolve_game,
    run,
)
from pmsim.engine import FLOW_TOL, UNIFORM_BLOCK, flow_inputs, flow_system, sample_index

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


def test_balance_without_flow_between_the_states_falls_back():
    """Two absorbing states: the N = 2 engine form takes the fallback and fills its list buffer."""
    columns, residual = flow_inputs([[1.0, 0.0], [0.0, 1.0]])
    p, l1, linf = fixed_point(columns, residual)
    assert p == [0.5, 0.5] and l1 == linf == 0.0 and residual == [0.0, 0.0]
    np.testing.assert_array_equal(fixed_point(np.eye(2)), [0.5, 0.5])


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


def test_engine_imports_no_set_up():
    """The engine takes its set-up as a report: it imports neither the geometry nor check_game."""
    with open(pmsim.engine.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()  # module and name of every import statement
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {"." * node.level + (node.module or ""), *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert {".observability", "ObservabilityReport"} <= imported  # the scan sees imports
    assert not {".geometry", "pmsim.geometry", "geometry", "build_graph", "check_game"} & imported


def test_run_gates_unobservable_games(label_efficient):
    """A report built without the gate, of a game that is not locally observable."""
    graph, _ = analyze_geometry(label_efficient)
    observers = check_game(label_efficient, graph)
    with pytest.raises(NotLocallyObservableError):
        Engine(label_efficient, IID([0.5, 0.5]), 10, observers=observers)
    with pytest.raises(NotLocallyObservableError):
        run(label_efficient, IID([0.5, 0.5]), 10, observers=observers)


def test_handed_observers_solve_no_lp(monkeypatch):
    """``Engine`` and ``run`` solve no LP: their report is their whole set-up."""
    game, _ = resolve_game(os.path.join(DATA, "voronoi_n16.json"))
    observers = gated_report(game)
    built = run(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2),
                observers=gated_report(game))

    def refuse(*args):
        raise AssertionError("the set-up was solved again")

    monkeypatch.setattr(pmsim.geometry, "solve_lp", refuse)
    handed = run(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2),
                 observers=observers)
    engine = Engine(game, make_adversary("adaptive", game), 50, EngineConfig(seed=2),
                    observers=observers)
    assert engine.observers is observers
    for tr in (handed, engine.run()):
        assert all(np.array_equal(x, y) for x, y in zip(tr, built))


def test_zero_horizon_gives_empty_transcript(bandit_mp):
    tr = run(bandit_mp, IID([0.5, 0.5]), 0, EngineConfig(seed=1),
             observers=gated_report(bandit_mp))
    assert all(len(column) == 0 for column in tr)


def test_short_run_shape_and_losses(bandit_mp):
    tr = run(bandit_mp, IID([0.5, 0.5]), 10, EngineConfig(seed=7),
             observers=gated_report(bandit_mp))
    assert tr._fields == ("k", "action", "outcome", "symbol")
    assert [len(column) for column in tr] == [10] * 4
    assert set(bandit_mp.loss[tr.action, tr.outcome].tolist()) <= {0.0, 1.0}


def test_first_round_is_symmetric(bandit_mp):
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 1, EngineConfig(seed=0),
                    observers=gated_report(bandit_mp))
    engine.step()
    np.testing.assert_allclose(engine.p, [0.5, 0.5], atol=1e-12)


def test_transcripts_are_deterministic(bandit_mp_random):
    cfg, observers = EngineConfig(seed=1234), gated_report(bandit_mp_random)
    a = run(bandit_mp_random, IID([0.4, 0.6]), 300, cfg, observers=observers)
    b = run(bandit_mp_random, IID([0.4, 0.6]), 300, cfg, observers=observers)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = run(bandit_mp_random, IID([0.4, 0.6]), 300, EngineConfig(seed=1235), observers=observers)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_played_action_stays_in_sampled_neighborhood(three_action_loss):
    from pmsim import Game
    game = Game.deterministic(three_action_loss,
                              [["0", "1"]] * 3)  # full information, 3 actions
    graph, _ = build_graph(game)
    tr = Engine(game, IID([0.5, 0.5]), 500, EngineConfig(seed=5),
                observers=check_game(game, graph)).run()
    for k, a in zip(tr.k.tolist(), tr.action.tolist()):
        assert graph.are_neighbors(k, a)
        assert a in graph.neighbors[k]


class CyclingOutcomes:
    """Minimal deterministic adversary for flow checks."""

    needs_rng = False

    def bind(self, game, rng=None):
        self.game = game

    def next_outcome(self, t, last):
        return (t * 7) % self.game.n_outcomes


def test_flow_condition_holds_every_round(bandit_mp, apple_tasting):
    for game in (bandit_mp, apple_tasting):
        engine = Engine(game, CyclingOutcomes(), 400, EngineConfig(seed=11),
                        observers=gated_report(game))
        engine.run()
        assert engine.max_flow_residual_l1 <= 1e-9


def test_q_constant_between_invocations(bandit_mp):
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 200, EngineConfig(seed=2),
                    observers=gated_report(bandit_mp))
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
    tr = run(bandit_mp, FixedSequence([1, 0] * 50), 100, EngineConfig(seed=3),
             observers=gated_report(bandit_mp))
    assert tr.outcome.tolist() == [1, 0] * 50


@pytest.mark.parametrize("field, value", [
    ("eta", -1.0), ("eta", 0), ("eta", float("nan")), ("eta", float("inf")), ("eta", "fast"),
    ("gamma", -0.1), ("gamma", 1.5), ("gamma", float("nan")), ("gamma", None),
    ("seed", 1.5), ("seed", "3"), ("seed", -1), ("seed", True),
])
def test_engine_config_rejects_bad_fields(bandit_mp, field, value):
    observers = gated_report(bandit_mp)
    with pytest.raises(ValueError, match=f"^{field}: "):
        run(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**{field: value}), observers=observers)
    with pytest.raises(ValueError, match=f"^{field}: "):
        Engine(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**{field: value}),
               observers=observers)


@pytest.mark.parametrize("kwargs", [
    dict(eta="auto", gamma="auto", seed=0), dict(eta=1e-3, gamma=0.0, seed=np.int64(7)),
    dict(eta=2, gamma=1.0, seed=2**40), dict(eta=1e308, gamma=0.5, seed=3),
])
def test_engine_config_accepts_valid_fields(bandit_mp, kwargs):
    tr = run(bandit_mp, IID([0.5, 0.5]), 5, EngineConfig(**kwargs),
             observers=gated_report(bandit_mp))
    assert len(tr.action) == 5


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


def _fixed_point_ufunc(Q, residual):
    """``fixed_point(Q, residual)`` with every check, sum and l1 a numpy ufunc reduction.

    The oracle for the engine's form, which must give the same p, l1 and
    buffer, bit for bit.
    """
    n = Q.shape[0]
    if n == 2:
        a, b = max(Q.item(0, 1), 0.0), max(Q.item(1, 0), 0.0)
        total = a + b
        if total > 1e-12:
            p = np.array([a / total, b / total])
            # Qp by elementwise products and a sum, each rounded: no fused multiply-add
            np.abs(Q[:, 0] * p[0] + Q[:, 1] * p[1] - p, out=residual)
            return p, float(np.add.reduce(residual))
    else:
        p = pmsim.engine._lapack_solve(flow_system(Q), np.eye(n)[-1], signature="dd->d")
        if np.minimum.reduce(p) >= -1e-12:
            p = np.maximum(p, 0.0)
            p /= np.add.reduce(p)
            l1 = float(np.add.reduce(np.abs(Q.dot(p) - p, out=residual)))
            if l1 <= 1e-12:
                return p, l1
    p = pmsim.engine._limit_from_uniform(Q)
    l1 = float(np.add.reduce(np.abs(Q.dot(p) - p, out=residual)))
    assert l1 <= FLOW_TOL
    return p, l1


def _bits(values):
    return [float.hex(v) for v in np.asarray(values).tolist()]


def test_fixed_point_matches_the_ufunc_reductions(monkeypatch):
    """Same p (signs of zero included), l1 and residual buffer as :func:`_fixed_point_ufunc`.

    Seeded sparse column-stochastic matrices for N = 2..16 reach the clamp of
    a solution whose minimum is in [-1e-12, 0] and the closed-class fallback;
    a patched solve also returns partly-NaN vectors, whose NaN Python's
    ``min`` may skip, and vectors with a ``-0.0`` entry.
    """
    real_solve = pmsim.engine._lapack_solve
    solved_minima, fallbacks = [], []
    real_limit = pmsim.engine._limit_from_uniform

    def counted_limit(Q):
        if pmsim.engine._lapack_solve is real_solve:
            fallbacks.append(Q.shape[0])
        return real_limit(Q)

    def faulty_solve(entry, value):
        """The solve, with ``value`` at ``entry`` (None: at its entry nearest zero)."""
        def solve(A, rhs, signature):
            p = real_solve(A, rhs, signature=signature)
            p[np.argmin(np.abs(p)) if entry is None else entry % len(p)] = value
            return p
        return solve

    def check(Q):
        arg, buf = flow_inputs(Q.T.tolist())
        buf[:], ref_buf = [7.0] * len(Q), np.full(len(Q), 7.0)
        with np.errstate(invalid="ignore"):
            p, l1, linf = fixed_point(arg, buf)
            ref_p, ref_l1 = _fixed_point_ufunc(Q, ref_buf)
        assert type(p) is list and _bits(p) == _bits(ref_p)
        assert l1.hex() == ref_l1.hex()
        assert linf.hex() == float(np.maximum.reduce(ref_buf)).hex()
        assert _bits(buf) == _bits(ref_buf)

    monkeypatch.setattr(pmsim.engine, "_limit_from_uniform", counted_limit)
    for n in range(2, 17):
        for seed in range(20):
            rng = np.random.default_rng([n, seed])
            Q = rng.random((n, n)) * (rng.random((n, n)) >= rng.uniform(0.0, 0.9))
            Q[rng.integers(n, size=n), np.arange(n)] += 1e-3  # no all-zero column
            Q /= Q.sum(axis=0)
            if n > 2:
                with np.errstate(invalid="ignore"):
                    solved_minima.append(float(np.minimum.reduce(
                        real_solve(flow_system(Q), np.eye(n)[-1], signature="dd->d"))))
            check(Q)
            if n > 2 and seed < 4:
                for entry, value in ((seed, float("nan")), (None, -0.0)):
                    with monkeypatch.context() as patch:
                        patch.setattr(pmsim.engine, "_lapack_solve", faulty_solve(entry, value))
                        check(Q)
    assert any(-1e-12 <= lo <= 0.0 for lo in solved_minima)
    assert fallbacks


@pytest.mark.parametrize("name", ["voronoi_n16.json", "noisy_voronoi_n8.json", "bandit3.json",
                                  "full_info_3x3", "bandit_mp", "apple_tasting",
                                  "bandit_mp_random"])
@pytest.mark.parametrize("adversary, gamma", [("adaptive", "auto"), ("adaptive", 0.0),
                                              ("uniform", "auto")])
def test_flow_system_tracks_q_every_round(name, adversary, gamma, monkeypatch):
    """Each round's p is the array form's fixed point of the learners' q, bit for bit.

    Its residual is ``|Qp - p|``: for N >= 3 by numpy's ``Q.dot``, on the
    engine's own Q; for N = 2, where the engine keeps no numpy Q, on Python
    floats from Q's rows.  The residual maxima equal the maxima over every
    round's l1 and linf.
    """
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    engine = Engine(game, make_adversary(adversary, game), 400, EngineConfig(gamma=gamma, seed=4),
                    observers=gated_report(game))
    balance = game.n_actions == 2
    assert isinstance(engine.Q, list) == balance
    l1, linf = [0.0], [0.0]
    while engine.t < engine.horizon:
        Q = np.column_stack([lr.q for lr in engine.learners])  # before invoke rewrites one
        if not balance:
            assert np.array_equal(engine.Q, Q), engine.t
        expected = fixed_point(Q)
        engine.step()
        p = engine.p
        assert type(p) is list and _bits(p) == _bits(expected), engine.t
        if balance:
            r = [abs(row[0] * p[0] + row[1] * p[1] - pi) for row, pi in zip(Q.tolist(), p)]
        else:
            r = np.abs(Q.dot(p) - p).tolist()
        assert _bits(engine.residual) == _bits(r), engine.t
        l1.append(float(np.add.reduce(r)))
        linf.append(max(r))
    assert len(set(engine.transcript.k.tolist())) > 1  # more than one column was rewritten
    assert engine.max_flow_residual_l1.hex() == max(l1).hex()
    assert engine.max_flow_residual_linf.hex() == max(linf).hex()
    assert engine.max_flow_residual_l1 <= FLOW_TOL


@pytest.mark.parametrize("fault", ["sum", "negative"])
def test_non_stochastic_column_raises_when_written(bandit_mp, fault, monkeypatch):
    """The column check runs on the column invoke returns, in the round it is written."""
    engine = Engine(bandit_mp, IID([0.5, 0.5]), 20, EngineConfig(seed=6),
                    observers=gated_report(bandit_mp))
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
        Engine(bandit_mp, IID([0.5, 0.5]), 5, observers=gated_report(bandit_mp))


def absorbing_engine(monkeypatch, horizon, fail_at=None):
    """An engine whose states 0 and 1 are absorbing, so its flow system is exactly singular.

    Columns 0 and 1 of Q start as unit vectors, and the patched ``invoke``
    writes ``e_k`` into every column k it rewrites; each column stays
    stochastic, but Q has two closed classes every round.  Returns the engine
    and a list of the rounds in which the closed-class fallback ran.
    """
    game, _ = resolve_game("full_info_3x3")
    engine = Engine(game, IID([1 / 3] * 3), horizon, EngineConfig(seed=8),
                    observers=gated_report(game))
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
    observers = gated_report(game)
    horizon = 4 * UNIFORM_BLOCK + 11  # 3 * horizon engine uniforms: not a whole number of blocks

    def engine():
        return Engine(game, make_adversary(adversary, game), horizon, EngineConfig(seed=5),
                      observers=observers)

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
