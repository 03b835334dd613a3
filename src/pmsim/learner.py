"""Per-vertex learners: observer tables, running cost estimates, exponential weights.

Each action owns one learner that plays only over its neighbor set.  Signals
are unit vectors, so an observer applied to one is a single entry, read from
tables built once.  Between invocations the learner sums the estimates of
every round it can learn from into a relative-cost vector over its neighbors;
when invoked it feeds that to an exponential-weights update, re-emits its
sampling distribution mixed with a little uniform exploration, and restarts
the sum from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observability import ObservabilityReport


@dataclass
class LearnerState:
    action: int
    neighbors: np.ndarray  # sorted, includes the owner
    x: np.ndarray          # exponential-weights iterate over neighbors
    q: np.ndarray          # mixed distribution over all N actions
    eta: float
    gamma: float
    top: np.ndarray        # row s: observer (i, j)'s entry for own symbol s, per neighbor j
    bottom: dict[int, tuple[int, np.ndarray]]  # j -> (index in neighbors, block over j's symbols)
    f: np.ndarray          # relative costs over neighbors, summed since the last invocation
    buffer: list[int] = field(default_factory=list)  # rounds summed into f since then


def make_learner(action: int, neighbors, n_actions: int, eta: float, gamma: float,
                 observers: ObservabilityReport) -> LearnerState:
    """Fresh learner with the uniform mixed distribution over its neighbor set."""
    neighbors = np.asarray(sorted(neighbors), dtype=int)
    x = np.full(len(neighbors), 1.0 / len(neighbors))
    q = np.zeros(n_actions)
    q[neighbors] = x
    ovs = {j: observers.observer(action, j) for j in neighbors.tolist() if j != action}
    n_own = next(iter(ovs.values())).split
    top = np.array([ovs[j].top if j in ovs else np.zeros(n_own) for j in neighbors.tolist()])
    return LearnerState(
        action=action, neighbors=neighbors, x=x, q=q, eta=eta, gamma=gamma,
        top=np.ascontiguousarray(top.T), f=np.zeros(len(neighbors)),
        bottom={j: (int(np.searchsorted(neighbors, j)), ov.bottom) for j, ov in ovs.items()},
    )


def estimate_b(state: LearnerState, k: int, played: int, symbol: int, q: np.ndarray,
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
    own.f += own.top[symbol]
    own.buffer.append(t)
    if k != played:
        lk = learners[k]
        pos, bottom = lk.bottom[played]
        lk.f[pos] += bottom[symbol] / lk.q[played]
        lk.buffer.append(t)


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

    ``observers`` is not consulted: the learner read its tables when it was made.
    """
    state.x = exp_weights_step(state.x, state.f, state.eta)
    state.q[state.neighbors] = (1.0 - state.gamma) * state.x + state.gamma / len(state.neighbors)
    state.f.fill(0.0)
    state.buffer.clear()
    return state
