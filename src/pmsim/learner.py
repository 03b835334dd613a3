"""Per-vertex learners: observer tables, running cost estimates, exponential weights.

Each action owns one learner that plays only over its neighbor set.  Signals
are unit vectors, so an observer applied to one is a single entry, read from
tables built once.  Between invocations the learner sums the estimates of
every round it can learn from into a relative-cost vector over its neighbors;
when invoked it feeds that to an exponential-weights update, re-emits its
sampling distribution mixed with a little uniform exploration, and restarts
the sum from zero.

A learner's vectors have at most N entries, so its round runs on Python
floats: ``x``, ``f`` and ``q`` are lists, and elementwise sums, products and
quotients round as numpy's do.  The weight total follows numpy's pinned
reduction order (:func:`weight_total`), and ``np.exp`` stays on numpy,
since ``math.exp`` can differ from it in the last bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

from .observability import LearnerTables, ObservabilityReport


@dataclass
class LearnerState:
    """Action ``action``'s learner, playing over its neighbor set ``tables.neighbors``."""

    action: int
    x: list[float]         # exponential-weights iterate over neighbors
    q: list[float]         # mixed distribution over all N actions
    eta: float
    gamma: float
    tables: LearnerTables  # the owner's observer tables, shared with every learner of its report
    f: list[float]         # relative costs over neighbors, summed since the last invocation
    buffer: list[int] = field(default_factory=list)  # rounds summed into f since then


def make_learner(action: int, n_actions: int, eta: float, gamma: float,
                 observers: ObservabilityReport) -> LearnerState:
    """Fresh learner, uniform over the neighbor set of its tables in ``observers``."""
    tables = observers.learner_tables[action]
    n = len(tables.neighbors)
    q = [0.0] * n_actions
    for j in tables.neighbors:
        q[j] = 1.0 / n
    return LearnerState(action=action, x=[1.0 / n] * n, q=q, eta=eta, gamma=gamma,
                        tables=tables, f=[0.0] * n)


def estimate_b(state: LearnerState, k: int, played: int, symbol: int, q: Sequence[float],
               observers: ObservabilityReport, j: int) -> float:
    """Loss-difference estimate of neighbor ``j`` against the owner, from one round.

    Only two kinds of round contribute: rounds where the owner's own action
    was played (the observer's top block reads the signal), and rounds where
    the owner was the sampled neighborhood ``k`` and ``j`` was played (bottom
    block, importance-weighted by ``q[j]``, the owner's distribution in force
    that round).
    """
    i = state.action
    if j == i:
        return 0.0  # an action against itself has relative cost zero
    ov = observers.observer(i, j)
    b = 0.0
    if played == i:
        b += float(ov.top[symbol])
    if k == i and played == j:
        qj = q[j]
        if qj <= 0.0:
            raise RuntimeError(f"learner {i} sampled neighbor {j} with zero probability")
        b += float(ov.bottom[symbol]) / qj
    return b


def add_round(learners: list[LearnerState], t: int, k: int, played: int, symbol: int) -> None:
    """Add round ``t``'s estimates to the running costs of the learners that use it.

    The played action's learner reads its top table; a sampled learner ``k``
    other than it reads its bottom block for ``played``, weighted by its own
    ``q``, in force until ``k`` is invoked.  Summed from +0.0 in round order,
    this gives the bits of the summed per-round :func:`estimate_b` values.
    """
    own = learners[played]
    own.f = list(map(add, own.f, own.tables.top[symbol]))
    own.buffer.append(t)
    if k != played:
        lk = learners[k]
        pos, bottom = lk.tables.bottom[played]
        lk.f[pos] += bottom[symbol] / lk.q[played]
        lk.buffer.append(t)


def weight_total(w: list[float]) -> float:
    """``np.add.reduce`` of the non-negative floats ``w`` as a float64 vector, bit for bit.

    Sums a learner's weights, and in :func:`~pmsim.engine.fixed_point` the
    clamped ``p`` and the flow residual ``|Qp - p|``, both non-negative too.

    Follows numpy's pairwise summation: below 8 entries, one running sum from
    0.0; up to its block of 128, eight running sums over the entries taken
    eight at a time, combined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``,
    then the leftover entries in order.  Longer vectors go to numpy.  Not
    Python's ``sum``, which compensates since Python 3.12.
    """
    n = len(w)
    if n < 8:
        total = 0.0
        for v in w:
            total += v
        return total
    if n > 128:
        return float(np.add.reduce(w))
    r0, r1, r2, r3, r4, r5, r6, r7 = w[:8]
    tail = n - n % 8
    for b in range(8, tail, 8):
        r0 += w[b]
        r1 += w[b + 1]
        r2 += w[b + 2]
        r3 += w[b + 3]
        r4 += w[b + 4]
        r5 += w[b + 5]
        r6 += w[b + 6]
        r7 += w[b + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for v in w[tail:]:
        total += v
    return total


def exp_weights_step(x: np.ndarray, f: np.ndarray, eta: float) -> np.ndarray:
    """Multiplicative-weights update ``x' ~ x * exp(-eta f)``, overflow-safe.

    Subtracting the max exponent first keeps the weights in range and makes
    the update invariant (to rounding) under constant shifts of ``f``.  If
    ``-eta * f`` overflowed, or all of ``x``'s support underflowed, the step is
    redone on that support; an infinite exponent there takes the eta -> inf
    limit, ``x``'s mass on the minimizers of ``f``.
    """
    f = np.asarray(f, dtype=float)
    z = -eta * f
    # max is exact, so Python's max on the list gives numpy's maximum: a zero of
    # either sign leaves exp(z - zmax) unchanged, and a NaN makes ``total`` NaN
    w = z - max(z.tolist())  # the steps below reuse this array in place
    np.exp(w, out=w)
    w *= x
    total = np.add.reduce(w)
    if not (total > 0.0 and math.isfinite(total)):
        live = x > 0.0
        z = np.where(live, z, -np.inf)
        zmax = z.max()
        w = x * (f == f[live].min()) if math.isinf(zmax) else x * np.exp(z - zmax)
        total = w.sum()
        if not (total > 0.0 and math.isfinite(total)):
            raise RuntimeError("exponential-weights update produced no usable mass")
    w /= total
    return w


def invoke(state: LearnerState, observers: ObservabilityReport) -> LearnerState:
    """One invocation: weight update from the costs :func:`add_round` summed, re-mixed q.

    The update is :func:`exp_weights_step` on Python floats, with one numpy
    call, ``np.exp``, and :func:`weight_total` for numpy's sum; when it gives
    no usable mass, :func:`exp_weights_step` itself redoes it.  ``observers``
    is not consulted: the learner read its tables when it was made.
    """
    x, f = state.x, state.f
    neg_eta = -state.eta
    # rounding is monotone, so for eta >= 0 this is the largest exponent, max(-eta * f);
    # a NaN in f makes the total NaN, as in exp_weights_step
    zmax = neg_eta * min(f)
    w = list(map(mul, np.exp([neg_eta * c - zmax for c in f]).tolist(), x))
    total = weight_total(w)
    if total > 0.0 and math.isfinite(total):
        x = [v / total for v in w]
    else:
        x = exp_weights_step(np.array(x), np.array(f), state.eta).tolist()
    state.x = x
    keep, spread = 1.0 - state.gamma, state.gamma / len(x)
    q = state.q
    for j, xj in zip(state.tables.neighbors, x):
        q[j] = keep * xj + spread
    state.f = [0.0] * len(x)
    state.buffer.clear()
    return state
