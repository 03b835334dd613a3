"""Two-level sampling engine.

Every round the engine stacks the learners' distributions into a column-
stochastic matrix Q, solves the flow condition p = Qp, samples a
neighborhood from p and an action from that neighborhood's distribution,
obtains the signal, routes the round to the (at most two) learners whose
estimators can use it, and invokes the sampled neighborhood's learner.
Direct sampling from p and the two-level scheme agree exactly because p is
stationary for Q; the engine asserts that identity every round.

Only the invoked learner's column of Q changes in a round.  The engine checks
that column when it writes it (every column once, when it is built) and
updates the flow system ``Q - I``, normalisation row last, beside Q in O(n),
so :func:`fixed_point` neither re-checks nor rebuilds it.  The residual
``|Qp - p|`` is computed once per round, inside :func:`fixed_point`, and
serves both its own acceptance test and the engine's flow-condition maxima.

The solve calls LAPACK's ``solve1`` gufunc directly, as ``np.linalg.solve``'s
Python checks cost more than a 16x16 solve; :meth:`Engine.run` holds the one
``np.errstate`` that keeps a singular system's NaN silent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from .adversaries import Adversary
from .errors import FixedPointError, NotLocallyObservableError
from .games import Game, draw_index
from .geometry import NeighborhoodGraph, build_graph
from .learner import LearnerState, add_round, invoke, make_learner
from .observability import ObservabilityReport, check_game

FLOW_TOL = 1e-9
_DIRECT_TOL = 1e-12


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


def check_column(q: np.ndarray, k: int) -> None:
    """Refuse a column ``q`` of Q, naming it as column ``k``, that is not a distribution."""
    total = np.add.reduce(q)
    if not (np.minimum.reduce(q) >= -1e-10 and abs(total - 1.0) <= 1e-10):  # NaN fails too
        raise FixedPointError(f"non-stochastic column {k} (sum {total!r})")


def flow_system(Q: np.ndarray) -> np.ndarray:
    """Check every column of Q, then return ``Q - I`` with its last row set to ones.

    The row of ones is the normalisation ``sum(p) = 1``; the other rows are ``Qp = p``.
    """
    for k in range(Q.shape[0]):
        check_column(Q[:, k], k)
    A = Q - np.eye(Q.shape[0])
    A[-1, :] = 1.0
    return A


@functools.lru_cache(maxsize=None)
def _last_unit(n: int) -> np.ndarray:
    """The flow system's right-hand side ``[0, ..., 0, 1]``, built once per n, read-only."""
    rhs = np.eye(n)[-1]
    rhs.setflags(write=False)
    return rhs


def fixed_point(Q: np.ndarray, A: np.ndarray | None = None,
                residual: np.ndarray | None = None) -> np.ndarray:
    """Stationary distribution p = Qp of a column-stochastic matrix.

    Direct dense solve of the flow system ``A`` (see :func:`flow_system`) by
    the LAPACK gufunc under ``np.linalg.solve``.  When that system is
    singular (multiple stationary distributions) the gufunc returns NaN;
    then, or when the solution fails the checks, falls back to
    :func:`_limit_from_uniform`, the limit of the damped chain from the
    uniform vector, which also fixes the tie-break between fixed points.
    Two actions skip the solve: the balance equation gives p.

    Called with ``Q`` alone, checks every column, builds ``A`` with
    :func:`flow_system` and solves under its own ``np.errstate``, so a
    singular system stays silent.  The engine instead passes the ``A`` it
    keeps beside ``Q``, whose columns it checked as it wrote them, and a
    ``residual`` buffer, which receives ``|Qp - p|`` for the returned p: the
    round's residual is computed once, here, and the engine reads its maxima
    from it.  That form leaves the errstate to :meth:`Engine.run`.
    """
    if A is None:
        Q = np.asarray(Q, dtype=float)
        with np.errstate(invalid="ignore"):
            return fixed_point(Q, flow_system(Q), residual)
    n = Q.shape[0]
    if residual is None:
        residual = np.empty(n)

    if n == 2:
        # balance equation: mass(2->1) * p1 = mass(1->2) * p0
        a, b = max(Q[0, 1], 0.0), max(Q[1, 0], 0.0)
        if a + b > _DIRECT_TOL:
            p = np.array([a / (a + b), b / (a + b)])
            np.abs(Q.dot(p) - p, out=residual)
            return p
    else:
        p = _lapack_solve(A, _last_unit(n), signature="dd->d")  # all NaN if A is singular
        if np.minimum.reduce(p) >= -1e-12:  # NaN fails
            p = np.maximum(p, 0.0)
            p /= np.add.reduce(p)
            if np.add.reduce(np.abs(Q.dot(p) - p, out=residual)) <= _DIRECT_TOL:
                return p

    try:
        p = _limit_from_uniform(Q)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(f"no fixed point: {exc}") from None
    l1 = np.add.reduce(np.abs(Q.dot(p) - p, out=residual))
    if not l1 <= FLOW_TOL:
        raise FixedPointError(f"no fixed point within tolerance (residual {l1:.3e})")
    return p


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


def sample_index(rng: np.random.Generator, pmf: np.ndarray) -> int:
    """Inverse-CDF draw from ``pmf`` consuming exactly one uniform (see :func:`draw_index`)."""
    return draw_index(rng, list(accumulate(pmf.tolist())))


class Engine:
    """One game run: owns the learners, the transcript, and the random streams.

    Draw order within a round is fixed: neighborhood k, then action I, then
    signal randomness (random-signal games only).  The adversary draws from
    its own stream, so its moves are reproducible independently of learner
    parameters.
    """

    def __init__(self, game: Game, adversary: Adversary, horizon: int,
                 config: EngineConfig | None = None,
                 graph: NeighborhoodGraph | None = None,
                 observers: ObservabilityReport | None = None):
        config = config or EngineConfig()
        if graph is None:
            graph, _ = build_graph(game)
        if observers is None:
            observers = check_game(game, graph)
        if not observers.locally_observable:
            raise NotLocallyObservableError(
                f"pairs without observers: {observers.unobservable_pairs()}"
            )
        self.game = game
        self.graph = graph
        self.observers = observers
        self.horizon = horizon
        self.eta = config.eta if config.eta != "auto" else auto_eta(
            game.n_actions, observers.v_bar, horizon)
        self.gamma = config.gamma if config.gamma != "auto" else auto_gamma(horizon)

        root = np.random.SeedSequence(config.seed)
        engine_ss, adversary_ss = root.spawn(2)
        self.rng = np.random.default_rng(engine_ss)
        self.adversary = adversary
        adversary.bind(game, np.random.default_rng(adversary_ss) if adversary.needs_rng else None)

        n = game.n_actions
        self.learners: list[LearnerState] = [
            make_learner(i, graph.neighbors[i], n, self.eta, self.gamma, observers)
            for i in range(n)
        ]
        self.Q = np.column_stack([lr.q for lr in self.learners])
        self.A = flow_system(self.Q)  # kept in step with Q, one column per round
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
        p = fixed_point(self.Q, self.A, self.residual)
        r = self.residual
        l1 = float(np.add.reduce(r))
        self.max_flow_residual_l1 = max(self.max_flow_residual_l1, l1)
        self.max_flow_residual_linf = max(self.max_flow_residual_linf,
                                          float(np.maximum.reduce(r)))
        if l1 > FLOW_TOL:
            raise FixedPointError(f"flow condition violated at round {self.t}: {l1:.3e}")
        self.p = p

        k = sample_index(self.rng, p)
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
        self.A[:-1, k] = q[:-1]
        if k < len(q) - 1:
            self.A[k, k] = q[k] - 1.0  # the bits of (Q - I)[k, k]

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
        graph: NeighborhoodGraph | None = None,
        observers: ObservabilityReport | None = None) -> Transcript:
    """Run a full game and return its transcript."""
    return Engine(game, adversary, horizon, config, graph=graph, observers=observers).run()
