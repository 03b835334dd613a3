#!/usr/bin/env python3
"""One full game, opened up: flow condition, transcript, regret report.

Runs the noisy bandit against an adaptive opponent and shows that the regret
stays far below the guarantee even though the player never once observes an
outcome or a loss.
"""

import numpy as np

from pmsim import (
    AdaptiveWorst,
    Engine,
    EngineConfig,
    analyze_geometry,
    check_game,
    regret_report,
    resolve_game,
)

T = 20_000
game, name = resolve_game("bandit_mp_random")
graph, _ = analyze_geometry(game)
observers = check_game(game, graph)

engine = Engine(game, AdaptiveWorst(), T, EngineConfig(seed=42), observers=observers)
print(f"{name}: eta={engine.eta:.5f}, gamma={engine.gamma:.5f}, v_bar={observers.v_bar}")

transcript = engine.run()
print(f"flow residual never exceeded {engine.max_flow_residual_l1:.2e} (l1)")

print("\nfirst rounds (k = sampled neighborhood, I = played action):")
for t in range(1, 6):  # the transcript is columnar: round t is row t - 1
    print(f"  t={t}: k={transcript.k[t - 1]} I={transcript.action[t - 1]} "
          f"j={transcript.outcome[t - 1]} symbol={transcript.symbol[t - 1]} "
          f"loss={transcript.loss[t - 1]}")

checkpoints = [T // 16, T // 4, T]
report = regret_report(transcript, game.loss, graph, observers.v_bar, checkpoints)
print(f"\ncumulative internal regret at {checkpoints}: "
      f"{np.round(report.curves['internal'], 1)}")
print(f"final: external={report.external:.1f}, internal={report.internal:.1f}, "
      f"local internal={report.local_internal:.1f}")
print(f"guarantee at T={T}: {report.theorem_bound:.1f}")
print(f"worst departure: {report.worst_departure}, "
      f"best fixed action in hindsight: {report.best_fixed_action}")
