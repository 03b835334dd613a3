#!/usr/bin/env python3
"""What the player actually sees: losses in, symbols out.

Builds the matching-pennies bandit and its noisy-signal variant, prints the
per-action signal matrices, and samples a few observations.
"""

import numpy as np

from pmsim import resolve_game

bandit, _ = resolve_game("bandit_mp")
print(bandit)
print("loss matrix:\n", bandit.loss)
for i in range(bandit.n_actions):
    sm = bandit.signal_matrix(i)
    print(f"action {i}: symbols {sm.symbols}, signal matrix\n{sm.matrix}")

print("\nstacked matrix for the pair (0, 1):")
print(bandit.stacked_signal_matrix(0, 1))

print("\nplaying action 0 against each outcome (deterministic, no randomness):")
for j in range(bandit.n_outcomes):
    print(f"  outcome {j} -> symbol {bandit.signal_matrix(0).symbols[bandit.observe(0, j)]!r}")

noisy, _ = resolve_game("bandit_mp_random")
rng = np.random.default_rng(0)
print(f"\n{noisy}: the same game, but every symbol lies 10% of the time")
print("column-stochastic signal matrix of action 0:\n", noisy.signal_matrix(0).matrix)
draws = [noisy.observe(0, 0, rng) for _ in range(10_000)]
print(f"empirical symbol frequencies vs (0.9, 0.1): {np.bincount(draws) / 10_000}")
