"""Shared Monte-Carlo machinery for estimator unbiasedness checks.

Distributions are frozen: every round draws (k, I, signal) from the same
stationary pair (p, Q) against a fixed outcome, and collects the per-round
estimates for each requested pair.  The draws are generated vectorized for
speed; the estimates themselves go through :func:`estimate_b` one round at a
time, which reads the learners' own observer tables, the ones the engine
plays from.
"""

from statistics import NormalDist

import numpy as np

from pmsim.engine import fixed_point
from pmsim.learner import make_learner


def estimate_b(state, k, played, symbol, q, j):
    """One round's estimate of neighbor ``j``'s loss minus the owner's, from ``state``'s tables.

    Only two kinds of round contribute: rounds where the owner's own action
    was played (its top table reads the signal), and rounds where the owner
    was the sampled neighborhood ``k`` and ``j`` was played (``j``'s bottom
    block, importance-weighted by ``q[j]``, the owner's distribution in force
    that round).  Summed from +0.0 in round order, these are the bits of the
    running costs :func:`pmsim.learner.add_round` keeps.
    """
    i = state.action
    if j == i:
        return 0.0  # an action against itself has relative cost zero
    tables = state.tables
    b = 0.0
    if played == i:
        b += tables.top[symbol][tables.neighbors.index(j)]
    if k == i and played == j:
        qj = q[j]
        if qj <= 0.0:
            raise RuntimeError(f"learner {i} sampled neighbor {j} with zero probability")
        b += tables.bottom[j][1][symbol] / qj
    return b


def frozen_setup(game, observers, qs):
    """Learner states pinned to the given per-action distributions."""
    N = game.n_actions
    states = [make_learner(i, N, eta=0.1, gamma=0.0, observers=observers) for i in range(N)]
    qs = [np.asarray(q, dtype=float) for q in qs]
    for st, q in zip(states, qs):
        st.q = q
    p = fixed_point(np.column_stack(qs))
    return states, qs, p


def _inverse_cdf(cum_rows, us):
    """Row r: ``games.draw_index``'s rule on cumulative weights ``cum_rows[r]`` and ``us[r]``.

    The first index whose cumulative weight exceeds the uniform; at or past the
    row's total, the last index with positive weight.  So a row padded with
    copies of its total never yields a padded slot.
    """
    idx = (us[:, None] >= cum_rows).sum(axis=1)
    last_positive = (cum_rows < cum_rows[:, -1:]).sum(axis=1)
    return np.where(idx < cum_rows.shape[1], idx, last_positive)


def simulate_estimates(game, states, qs, p, pairs, outcome, n_rounds, seed):
    """Sample ``n_rounds`` frozen rounds; return pair -> array of b values."""
    rng = np.random.default_rng(seed)
    cum_q = np.cumsum(np.vstack(qs), axis=1)
    ks = _inverse_cdf(np.cumsum(p)[None, :].repeat(n_rounds, 0), rng.random(n_rounds))
    actions = _inverse_cdf(cum_q[ks], rng.random(n_rounds))
    if game.random_signals:
        cum_sym = [np.cumsum(game.signal_matrix(i).matrix[:, outcome]) for i in
                   range(game.n_actions)]
        width = max(len(c) for c in cum_sym)
        padded = np.vstack([np.pad(c, (0, width - len(c)), mode="edge") for c in cum_sym])
        symbols = _inverse_cdf(padded[actions], rng.random(n_rounds))
    else:
        table = np.array([game.signal_matrix(i).matrix[:, outcome].argmax()
                          for i in range(game.n_actions)])
        symbols = table[actions]

    samples = {pair: np.empty(n_rounds) for pair in pairs}
    ks_l, actions_l, symbols_l = ks.tolist(), actions.tolist(), symbols.tolist()
    for r in range(n_rounds):
        k, a, sym = ks_l[r], actions_l[r], symbols_l[r]
        for (i, j) in pairs:
            samples[(i, j)][r] = estimate_b(states[i], k, a, sym, qs[i], j)
    return samples


def expected_b(game, p, i, j, outcome):
    """Closed-form conditional mean of the estimate for pair (i, j)."""
    return p[i] * (game.loss[j, outcome] - game.loss[i, outcome])


def family_band(n_tests, error=1e-3):
    """Half-width, in SE, of a two-sided normal band with family-wise ``error`` over ``n_tests``.

    Bonferroni: each mean gets ``error / n_tests``, so all of them, if unbiased,
    stay inside with probability at least ``1 - error``.
    """
    return NormalDist().inv_cdf(1.0 - error / (2 * n_tests))


def check_unbiased(game, graph, observers, qs, n_rounds, seed, tol_se=4.0):
    """Assert every neighbor pair's empirical mean sits in the ``tol_se``-SE band, per outcome.

    Returns the largest deviation seen, in SE.
    """
    states, qs, p = frozen_setup(game, observers, qs)
    pairs = graph.neighbor_pairs()
    worst = 0.0
    for outcome in range(game.n_outcomes):
        samples = simulate_estimates(
            game, states, qs, p, pairs, outcome, n_rounds, seed + outcome)
        for pair, values in samples.items():
            target = expected_b(game, p, pair[0], pair[1], outcome)
            se = values.std(ddof=1) / np.sqrt(n_rounds)
            err = abs(values.mean() - target)
            assert err <= max(tol_se * se, 1e-12), (
                f"pair {pair}, outcome {outcome}: mean {values.mean():.6f} "
                f"vs target {target:.6f} (se {se:.2e})"
            )
            worst = max(worst, err / se if se > 0 else 0.0)
    return worst
