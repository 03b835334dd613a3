#!/usr/bin/env python3
"""Observer vectors: when can signals reconstruct loss differences?

Walks the catalog and prints each game's verdict; for observable pairs the
minimum-norm observer vector and the constant v_bar that scales the regret
guarantee, for the label-efficient game the pair that breaks.
"""

import numpy as np

from pmsim import analyze_geometry, catalog, check_game

for entry in catalog():
    graph, geometry = analyze_geometry(entry.game)
    report = check_game(entry.game, graph)
    print(f"{entry.name}: locally observable = {report.locally_observable} "
          f"(expected {entry.expected_observable})")
    if geometry.dominated_actions:
        print(f"  note: dominated action(s) {geometry.dominated_actions} "
              "-- classification only, the learner gate would refuse this game")
    for (i, j), v, residual, observable in zip(report.pairs, report.v, report.residual,
                                               report.observable):
        if observable:
            print(f"  pair ({i},{j}): v = {v.round(6)}, |v|_inf = {np.abs(v).max():.3f}")
        else:
            print(f"  pair ({i},{j}): UNOBSERVABLE (residual {residual:.3f})")
    if report.locally_observable:
        print(f"  v_bar = {report.v_bar:.6f}, l_bar = {report.l_bar}")
    print()
