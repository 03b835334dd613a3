"""Two-level sampling engine.

Every round the engine stacks the learners' distributions into a column-
stochastic matrix Q, solves the flow condition p = Qp, samples a
neighborhood from p and an action from that neighborhood's distribution,
obtains the signal, routes the round to the (at most two) learners whose
estimators can use it, and invokes the sampled neighborhood's learner.
Direct sampling from p and the two-level scheme agree exactly because p is
stationary for Q; the engine asserts that identity every round.

Only the invoked learner's column of Q changes in a round.  The engine checks
that column when it writes it (every column once, when it is built), so
:func:`fixed_point` does not re-check Q; the direct solve builds ``Q - I``
from Q in the round it solves.  The residual ``|Qp - p|`` and its l1 sum are
computed once per round, inside :func:`fixed_point`, and serve both its own
acceptance test and the engine's flow-condition maxima.

The solve calls LAPACK's ``solve1`` gufunc directly, as ``np.linalg.solve``'s
Python checks cost more than a 16x16 solve; :meth:`Engine.run` holds the one
``np.errstate`` that keeps a singular system's NaN silent.

A round's cost is mostly numpy's per-call overhead on vectors of 2 to 16
entries, so the round makes as few numpy calls as keep every bit.
Elementwise arithmetic runs on Python floats, which round each sum, product
and quotient as numpy does: the learners' ``x``, ``f`` and ``q`` are lists,
and the engine samples I from ``q`` and writes it into Q as one.  The weight
total follows numpy's pinned reduction order
(:func:`~pmsim.learner.weight_total`).  ``np.exp``, the ``np.add.reduce`` of
``p``, ``Q.dot`` and ``solve1`` stay on numpy, as do the set-up's ``lstsq``
solves: ``math.exp`` and a reordered sum can differ in the last bit.  Checks
that only accept or refuse, such as :func:`check_column`, use Python floats
too.  Uniforms come a block at a time through :class:`BlockUniforms`, which
returns the values and the order of one ``random()`` call per draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, overload

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from .adversaries import Adversary
from .errors import FixedPointError, NotLocallyObservableError
from .games import Game, draw_index
from .geometry import build_graph
from .learner import add_round, invoke, make_learner
from .observability import ObservabilityReport, check_game

FLOW_TOL = 1e-9
_DIRECT_TOL = 1e-12
UNIFORM_BLOCK = 256  # uniforms per numpy call on each engine stream: 2 KB of doubles


def auto_eta(n_actions: int, v_bar: float, horizon: int) -> float:
    """Learning rate balancing the regret bound's variance and entropy terms."""
    return math.sqrt(math.log(n_actions) / (24.0 * v_bar ** 2 * max(horizon, 1)))


def auto_gamma(horizon: int) -> float:
    """Default exploration mix, vanishing as the horizon grows."""
    return min(0.25, 1.0 / math.sqrt(max(horizon, 1)))


def check_rates(eta, gamma) -> None:
    """Refuse, naming the field, a learning rate or exploration mix the learners cannot use."""
    if eta != "auto" and not (is_number(eta) and math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta: need 'auto' or a finite positive number, got {eta!r}")
    if gamma != "auto" and not (is_number(gamma) and 0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma: need 'auto' or a number in [0, 1], got {gamma!r}")


def is_number(x) -> bool:
    """An int or a float, ``bool`` excluded so that ``true`` is not read as 1."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_integer(x) -> bool:
    """An int or a numpy integer, ``bool`` excluded."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_seed(seed) -> bool:
    """A non-negative integer, as ``np.random.SeedSequence`` takes."""
    return is_integer(seed) and seed >= 0


@dataclass(frozen=True)
class EngineConfig:
    eta: float | str = "auto"
    gamma: float | str = "auto"
    seed: int = 0

    def __post_init__(self):
        check_rates(self.eta, self.gamma)
        if not is_seed(self.seed):
            raise ValueError(f"seed: need a non-negative integer, got {self.seed!r}")


class Transcript(NamedTuple):
    """A run's rounds as columns: round t is row t - 1 of every array.

    The engine allocates all T rows up front; rows past its current round are zero.
    """

    k: np.ndarray        # sampled neighborhood
    action: np.ndarray   # played action I_t
    outcome: np.ndarray  # adversary move j_t
    symbol: np.ndarray   # observed symbol index within the played action's alphabet
    loss: np.ndarray


def check_column(q: list[float], k: int) -> None:
    """Refuse a column ``q`` of Q, naming it as column ``k``, that is not a distribution.

    A check only: nothing it computes feeds the trajectory, so Python's
    ``sum`` serves.
    """
    total = sum(q)  # NaN in q makes the sum NaN, which fails the test below
    if not (min(q) >= -1e-10 and abs(total - 1.0) <= 1e-10):
        raise FixedPointError(f"non-stochastic column {k} (sum {total!r})")


def check_columns(Q: np.ndarray) -> None:
    """Refuse a Q any of whose columns is not a distribution (see :func:`check_column`)."""
    for k, q in enumerate(Q.T.tolist()):
        check_column(q, k)


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """I_n, built once per n, read-only; its last row is the flow system's right-hand side."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def flow_system(Q: np.ndarray) -> np.ndarray:
    """``Q - I`` with its last row set to ones, the normalisation ``sum(p) = 1``."""
    A = Q - _identity(Q.shape[0])
    A[-1] = 1.0
    return A


@overload
def fixed_point(Q: np.ndarray) -> np.ndarray: ...


@overload
def fixed_point(Q: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, float]: ...


def fixed_point(Q, residual=None):
    """Stationary distribution p = Qp of a column-stochastic matrix.

    Direct dense solve of the :func:`flow_system` of Q by the LAPACK gufunc
    under ``np.linalg.solve``.  When that system is singular (multiple
    stationary distributions) the gufunc returns NaN; then, or when the
    solution fails the checks, falls back to :func:`_limit_from_uniform`, the
    limit of the damped chain from the uniform vector, which also fixes the
    tie-break between fixed points.  Two actions skip the solve: the balance
    equation gives p.

    Called with ``Q`` alone, checks every column, solves under its own
    ``np.errstate``, so a singular system stays silent, and returns p.  The
    engine, which checks each column as it writes it, passes a ``residual``
    buffer instead and leaves the errstate to :meth:`Engine.run`; then the
    buffer receives ``|Qp - p|`` for the returned p, and the call returns
    ``(p, l1)`` with l1 the buffer's sum as a Python float.  Both forms share
    this one module-level name, so a wrapper of it (``bench/spans.py``
    traces ``pmsim.engine.fixed_point``) sees every round.
    """
    if residual is None:
        Q = np.asarray(Q, dtype=float)
        check_columns(Q)
        with np.errstate(invalid="ignore"):
            return fixed_point(Q, np.empty(Q.shape[0]))[0]
    n = Q.shape[0]

    if n == 2:
        # balance equation: mass(2->1) * p1 = mass(1->2) * p0, on Python floats
        a, b = max(Q.item(0, 1), 0.0), max(Q.item(1, 0), 0.0)
        total = a + b
        if total > _DIRECT_TOL:
            p = np.array([a / total, b / total])
            return p, float(np.add.reduce(np.abs(Q.dot(p) - p, out=residual)))
    else:
        p = _lapack_solve(flow_system(Q), _identity(n)[-1], signature="dd->d")  # NaN if singular
        if np.minimum.reduce(p) >= -1e-12:  # NaN fails
            p = np.maximum(p, 0.0)
            p /= np.add.reduce(p)
            l1 = float(np.add.reduce(np.abs(Q.dot(p) - p, out=residual)))
            if l1 <= _DIRECT_TOL:
                return p, l1

    try:
        p = _limit_from_uniform(Q)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(f"no fixed point: {exc}") from None
    l1 = float(np.add.reduce(np.abs(Q.dot(p) - p, out=residual)))
    if not l1 <= FLOW_TOL:
        raise FixedPointError(f"no fixed point within tolerance (residual {l1:.3e})")
    return p, l1


def _limit_from_uniform(Q: np.ndarray) -> np.ndarray:
    """Limit of the damped chain ``p <- (p + Qp) / 2`` from the uniform vector.

    The limit puts, on each closed class of the chain, that class's stationary
    distribution times the mass the chain started from uniform ends up
    absorbed in it.  Computed from the support of Q directly, so a chain that
    mixes slowly (a class that leaks mass at rate 1e-9, say) costs no more
    than one that mixes fast.
    """
    n = Q.shape[0]
    reach = (Q > 0.0) | np.eye(n, dtype=bool)  # reach[i, j]: i is reachable from j
    for k in range(n):  # transitive closure
        reach |= reach[:, k, None] & reach[None, k, :]
    closed = np.all(reach <= reach.T, axis=0)  # j reaches only states that reach it back
    start = np.full(n, 1.0 / n)
    transient = ~closed
    absorbed = start.copy()
    if transient.any():
        # mass moved out of the transient states, summed over every visit
        visits = np.linalg.solve(np.eye(transient.sum()) - Q[np.ix_(transient, transient)],
                                 start[transient])
        absorbed[closed] += Q[np.ix_(closed, transient)] @ visits
    p = np.zeros(n)
    todo = closed.copy()
    while todo.any():
        members = reach[:, todo.nonzero()[0][0]]  # the closed class of the first state left
        block = Q[np.ix_(members, members)] - np.eye(members.sum())
        block[-1] = 1.0
        rhs = np.zeros(members.sum())
        rhs[-1] = absorbed[members].sum()
        p[members] = np.linalg.solve(block, rhs)
        todo &= ~members
    p = np.maximum(p, 0.0)
    return p / p.sum()


class BlockUniforms:
    """A generator's uniforms, drawn ``UNIFORM_BLOCK`` at a time, read one by one.

    ``Generator.random(n)`` gives the same floats, in the same order, as n
    calls of ``Generator.random()``, so each ``random()`` here returns the
    value the generator itself would have returned next; only the numpy call
    per uniform is saved.  Nothing but :func:`draw_index` reads the engine's
    streams, and it calls only ``random()``.
    """

    __slots__ = ("_generator", "_next")

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._next = iter(()).__next__

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._generator.random(UNIFORM_BLOCK).tolist()).__next__
            return self._next()


def sample_index(rng: np.random.Generator, pmf: list[float]) -> int:
    """Inverse-CDF draw from ``pmf`` consuming exactly one uniform (see :func:`draw_index`)."""
    return draw_index(rng, list(accumulate(pmf)))


class Engine:
    """One game run: owns the learners, the transcript, and the random streams.

    Its one set-up input is ``observers``, whose learner tables fix each
    neighbor set; handed them it solves no LP, else it builds them behind
    :func:`build_graph`'s strict gate.  A game not locally observable is refused.

    Draw order within a round is fixed: neighborhood k, then action I, then
    signal randomness (random-signal games only).  The adversary draws from
    its own stream, so its moves are reproducible independently of learner
    parameters.
    """

    def __init__(self, game: Game, adversary: Adversary, horizon: int,
                 config: EngineConfig | None = None,
                 observers: ObservabilityReport | None = None):
        config = config or EngineConfig()
        if observers is None:
            observers = check_game(game, build_graph(game)[0])
        if not observers.locally_observable:
            raise NotLocallyObservableError(
                f"pairs without observers: {observers.unobservable_pairs()}"
            )
        self.game = game
        self.observers = observers
        self.horizon = horizon
        self.eta = config.eta if config.eta != "auto" else auto_eta(
            game.n_actions, observers.v_bar, horizon)
        self.gamma = config.gamma if config.gamma != "auto" else auto_gamma(horizon)

        root = np.random.SeedSequence(config.seed)
        engine_ss, adversary_ss = root.spawn(2)
        self.rng = BlockUniforms(np.random.default_rng(engine_ss))
        self.adversary = adversary
        adversary.bind(game, BlockUniforms(np.random.default_rng(adversary_ss))
                       if adversary.needs_rng else None)

        n = game.n_actions
        self.learners = [make_learner(i, n, self.eta, self.gamma, observers) for i in range(n)]
        self.Q = np.column_stack([lr.q for lr in self.learners])
        check_columns(self.Q)  # from here on, each column is checked as it is written
        self.residual = np.empty(n)  # |Qp - p| of the current round, from fixed_point
        self.t = 0
        self.transcript = Transcript(*np.zeros((4, horizon), dtype=np.intp),
                                     loss=np.zeros(horizon))
        self.max_flow_residual_l1 = 0.0
        self.max_flow_residual_linf = 0.0

    def step(self) -> None:
        """Play one round and write it into the transcript's row ``t - 1``.

        Enters no ``np.errstate``: outside :meth:`run`, a singular flow system
        makes numpy warn, and ``p`` still comes from the fallback.
        """
        if self.t >= self.horizon:
            raise RuntimeError("horizon exhausted")
        self.t += 1
        p, l1 = fixed_point(self.Q, self.residual)
        if l1 > self.max_flow_residual_l1:
            self.max_flow_residual_l1 = l1
        if l1 > self.max_flow_residual_linf:  # else linf <= l1 cannot raise its maximum
            self.max_flow_residual_linf = max(self.max_flow_residual_linf,
                                              float(np.maximum.reduce(self.residual)))
        if l1 > FLOW_TOL:
            raise FixedPointError(f"flow condition violated at round {self.t}: {l1:.3e}")
        self.p = p

        k = sample_index(self.rng, p.tolist())
        a = sample_index(self.rng, self.learners[k].q)
        tr = self.transcript
        j = self.adversary.next_outcome(self.t, tr.action[:self.t - 1])
        symbol = self.game.observe(a, j, self.rng)

        row = self.t - 1
        tr.k[row], tr.action[row], tr.outcome[row] = k, a, j
        tr.symbol[row], tr.loss[row] = symbol, self.game.loss[a, j]

        add_round(self.learners, self.t, k, a, symbol)
        q = invoke(self.learners[k], self.observers).q
        check_column(q, k)
        self.Q[:, k] = q

    def run(self) -> Transcript:
        """Play the remaining rounds under one ``np.errstate``, restored on exit.

        Held per run, not per round, as entering one costs about a microsecond.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            while self.t < self.horizon:
                self.step()
        return self.transcript


def run(game: Game, adversary: Adversary, horizon: int,
        config: EngineConfig | None = None, *,
        observers: ObservabilityReport | None = None) -> Transcript:
    """Run a full game and return its transcript (set-up as in :class:`Engine`)."""
    return Engine(game, adversary, horizon, config, observers=observers).run()
