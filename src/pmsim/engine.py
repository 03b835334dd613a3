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
and the engine samples I from ``q`` and, for N >= 3, writes it into Q as one.
The weight total follows numpy's pinned reduction order
(:func:`~pmsim.learner.weight_total`), and so do the flow solve's sum of
``p`` and l1 of the residual.  ``np.exp``, ``solve1``, ``Q.dot`` and the
flow solve's ``np.abs`` and ``np.maximum`` stay on numpy, as do the set-up's
``lstsq`` solves: ``math.exp`` and a reordered sum can differ in the last
bit, and Python's ``max`` from ``np.maximum`` in the sign of a zero.  Checks
that only accept or refuse, such as :func:`check_column` and the gate on
``min(p)``, use Python floats too.  Uniforms come a block at a time through
:class:`BlockUniforms`, which returns the values and the order of one
``random()`` call per draw.

The numpy calls of a round, by N:

- N = 2: none in the flow solve.  There is no numpy Q: ``Engine.Q`` is the
  list of Q's two columns, the learners' own ``q`` lists, which
  :func:`~pmsim.learner.invoke` rewrites in place, and the balance equation
  takes p, ``|Qp - p|``, its l1 and its linf on Python floats.  numpy's
  ``dot`` uses fused multiply-adds where the CPU has them and these products
  do not, so the residual, and only it, may differ in the last bit from
  ``Q.dot``'s; it feeds nothing but the 1e-9 check and the engine's maxima.
- N >= 3: the solve's ``Q - I`` and its last row, ``solve1``, two ``tolist`` of
  p, the division by p's sum, ``Q.dot``, the subtraction, ``np.abs`` into
  the residual buffer and its ``tolist`` (and ``np.maximum`` when ``min(p)``
  is not positive), then the write of the invoked learner's column into Q.
- Every N: ``np.exp`` in the invocation, the four transcript writes and,
  against :class:`~pmsim.adversaries.AdaptiveWorst`, its count update,
  ``dot`` and ``argmax``; the adversary is handed the previous round's
  action, not a slice of the transcript.
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
from .learner import add_round, invoke, make_learner, weight_total
from .observability import ObservabilityReport

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
    """A run's decisions as columns: round t is row t - 1 of every array.

    The engine allocates all T rows up front; rows past its current round are
    zero.  A round's loss is not recorded: it is ``game.loss[action, outcome]``.
    """

    k: np.ndarray        # sampled neighborhood
    action: np.ndarray   # played action I_t
    outcome: np.ndarray  # adversary move j_t
    symbol: np.ndarray   # observed symbol index within the played action's alphabet


def check_column(q: list[float], k: int) -> None:
    """Refuse a column ``q`` of Q, naming it as column ``k``, that is not a distribution.

    A check only: nothing it computes feeds the trajectory, so Python's
    ``sum`` serves.
    """
    total = sum(q)  # NaN in q makes the sum NaN, which fails the test below
    if not (min(q) >= -1e-10 and abs(total - 1.0) <= 1e-10):
        raise FixedPointError(f"non-stochastic column {k} (sum {total!r})")


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


def flow_inputs(columns: list[list[float]]):
    """The ``(Q, residual)`` that :func:`fixed_point`'s engine form takes for Q's ``columns``.

    N = 2: ``columns`` itself, the list of Q's two columns, and a list of two
    floats.  N >= 3: Q as an array, for LAPACK, and an array buffer.
    """
    if len(columns) == 2:
        return columns, [0.0, 0.0]
    return np.column_stack(columns), np.empty(len(columns))


@overload
def fixed_point(Q: np.ndarray) -> np.ndarray: ...


@overload
def fixed_point(Q, residual) -> tuple[list[float], float, float]: ...


def fixed_point(Q, residual=None):
    """Stationary distribution p = Qp of a column-stochastic matrix.

    Two actions take the balance equation, on Python floats.  More take a
    direct dense solve of the :func:`flow_system` of Q by the LAPACK gufunc
    under ``np.linalg.solve``.  When that system is singular (multiple
    stationary distributions) the gufunc returns NaN; then, or when the
    solution fails the checks (or, for two actions, when neither moves mass
    to the other), falls back to :func:`_limit_from_uniform`, the limit of
    the damped chain from the uniform vector, which also fixes the tie-break
    between fixed points.

    The checks and sums around the solve make no numpy reduction.  The gate
    is Python's ``min`` of p; ``np.maximum`` clamps p only when that minimum
    is not positive, as it is the identity on a positive p (a ``-0.0``
    minimum still takes numpy's clamp and its sign of zero); p's normalising
    sum and the residual's l1 are :func:`~pmsim.learner.weight_total`.
    ``min`` skips a NaN that is not p's first entry, so a partly-NaN solve
    can pass the gate, but its sum is NaN, so l1 is NaN and fails the
    acceptance test: the fallback then gives the p, l1 and buffer that a
    NaN-aware gate would have.

    Called with ``Q`` alone, checks every column, solves under its own
    ``np.errstate``, so a singular system stays silent, and returns p as an
    array.  The engine, which checks each column as it writes it, passes the
    :func:`flow_inputs` of Q's columns instead and leaves the errstate to
    :meth:`Engine.run`: for N = 2, the list of Q's columns and a list
    ``residual``; for N >= 3, Q and an array ``residual``.  Then
    ``residual`` receives ``|Qp - p|`` for the returned p, and the call
    returns ``(p, l1, linf)``: p as a list and the residual's l1 and linf as
    Python floats.  All forms share this one module-level name, so a wrapper
    of it (``bench/spans.py`` traces ``pmsim.engine.fixed_point``) sees every
    round.
    """
    if residual is None:
        columns = np.asarray(Q, dtype=float).T.tolist()
        for k, q in enumerate(columns):
            check_column(q, k)
        with np.errstate(invalid="ignore"):
            return np.array(fixed_point(*flow_inputs(columns))[0])

    if len(residual) == 2:
        # balance equation: mass(2->1) * p1 = mass(1->2) * p0, on Python floats
        (q00, q10), (q01, q11) = Q
        a, b = max(q01, 0.0), max(q10, 0.0)
        total = a + b
        if total > _DIRECT_TOL:
            p0, p1 = a / total, b / total
            # unlike numpy's dot, no fused multiply-add: the last bit may differ
            r0 = abs(q00 * p0 + q01 * p1 - p0)
            r1 = abs(q10 * p0 + q11 * p1 - p1)
            residual[0], residual[1] = r0, r1
            return [p0, p1], r0 + r1, max(r0, r1)
        Q = np.array(Q).T
    else:
        n = Q.shape[0]
        p = _lapack_solve(flow_system(Q), _identity(n)[-1], signature="dd->d")  # NaN if singular
        pl = p.tolist()
        lo = min(pl)
        # min skips a NaN after the first entry; such a p passes this gate, but
        # its sum, so every entry and l1, is NaN, and l1 fails the test below
        if lo >= -1e-12:
            if not lo > 0.0:  # the clamp is the identity on a positive p
                p = np.maximum(p, 0.0)
                pl = p.tolist()
            p /= weight_total(pl)
            rl = np.abs(Q.dot(p) - p, out=residual).tolist()
            l1 = weight_total(rl)
            if l1 <= _DIRECT_TOL:
                return p.tolist(), l1, max(rl)

    try:
        p = _limit_from_uniform(Q)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(f"no fixed point: {exc}") from None
    r = np.abs(Q.dot(p) - p)
    residual[:] = rl = r.tolist()
    l1 = float(np.add.reduce(r))
    if not l1 <= FLOW_TOL:
        raise FixedPointError(f"no fixed point within tolerance (residual {l1:.3e})")
    return p.tolist(), l1, max(rl)


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

    Its one set-up input is ``observers``, a report built behind the set-up's
    gates (as :func:`~pmsim.harness.run_experiment` builds it), whose learner
    tables fix each neighbor set; the engine solves no LP.  A report that is
    not locally observable is refused.

    Draw order within a round is fixed: neighborhood k, then action I, then
    signal randomness (random-signal games only).  The adversary draws from
    its own stream, so its moves are reproducible independently of learner
    parameters.
    """

    def __init__(self, game: Game, adversary: Adversary, horizon: int,
                 config: EngineConfig | None = None, *, observers: ObservabilityReport):
        config = config or EngineConfig()
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
        columns = [lr.q for lr in self.learners]
        for k, q in enumerate(columns):
            check_column(q, k)  # from here on, each column is checked as it is written
        # Q and |Qp - p| of the current round as fixed_point takes them: lists for N = 2
        self.Q, self.residual = flow_inputs(columns)
        self.columns = columns if n == 2 else self.Q.T  # Q's columns, writable (Q.T is a view)
        self.last_action: int | None = None  # the adversary's view of the previous round
        self.t = 0
        self.transcript = Transcript(*np.zeros((4, horizon), dtype=np.intp))
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
        p, l1, linf = fixed_point(self.Q, self.residual)
        if l1 > self.max_flow_residual_l1:
            self.max_flow_residual_l1 = l1
        if linf > self.max_flow_residual_linf:
            self.max_flow_residual_linf = linf
        if l1 > FLOW_TOL:
            raise FixedPointError(f"flow condition violated at round {self.t}: {l1:.3e}")
        self.p = p

        k = sample_index(self.rng, p)
        a = sample_index(self.rng, self.learners[k].q)
        j = self.adversary.next_outcome(self.t, self.last_action)
        symbol = self.game.observe(a, j, self.rng)

        row = self.t - 1
        tr = self.transcript
        tr.k[row], tr.action[row], tr.outcome[row], tr.symbol[row] = k, a, j, symbol
        self.last_action = a

        add_round(self.learners, self.t, k, a, symbol)
        q = invoke(self.learners[k], self.observers).q
        check_column(q, k)
        self.columns[k] = q

    def run(self) -> Transcript:
        """Play the remaining rounds under one ``np.errstate``, restored on exit.

        Held per run, not per round, as entering one costs about a microsecond.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            while self.t < self.horizon:
                self.step()
        return self.transcript


def run(game: Game, adversary: Adversary, horizon: int,
        config: EngineConfig | None = None, *, observers: ObservabilityReport) -> Transcript:
    """Run a full game on a gated report and return its transcript (see :class:`Engine`)."""
    return Engine(game, adversary, horizon, config, observers=observers).run()
