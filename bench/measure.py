"""Timing of passes, rescaled to a reference speed by a calibration kernel.

The host this benchmark was built on shares its cores with other machines:
the same pass runs up to 1.8x slower while a neighbour is busy, in phases
that last seconds to minutes, so over five runs of identical code and inputs
the median raw wall-clock rate spread by 14-34 % (IQR over median).  Each
operation is therefore bracketed by two runs
of a fixed kernel that does not touch pmsim (small dense solves, matrix-
vector products, ``exp`` and a Python loop, like one engine round), and its
time is multiplied by ``CAL_REF / mean(kernel before, kernel after)``: the
time it would have taken on a machine that runs the kernel in ``CAL_REF``.
Raw wall times are kept next to the rescaled ones.
"""

from __future__ import annotations

import os
import time

import numpy as np

CAL_REF = 0.010  # seconds per kernel run of the reference machine
_CAL_ROUNDS = 500


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    rng = np.random.default_rng(0)
    Q = rng.random((16, 16)) + 4.0 * np.eye(16)
    v = rng.random(16)
    acc: dict[int, float] = {}
    t0 = time.perf_counter()
    for k in range(_CAL_ROUNDS):
        p = np.linalg.solve(Q, v)
        w = np.exp(-0.1 * (Q @ p))
        w /= w.sum()
        for i, x in enumerate(w.tolist()):
            acc[i] = acc.get(i, 0.0) + x * (k & 3)
    return time.perf_counter() - t0


class Pass:
    """Totals of one pass over a workload's operations.

    ``busy`` and ``setup`` are rescaled seconds; ``raw_busy`` and
    ``raw_setup`` are wall-clock seconds.  ``busy`` excludes set-up.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.busy = 0.0
        self.setup = 0.0
        self.raw_busy = 0.0
        self.raw_setup = 0.0
        self.csv_bytes = 0

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.busy

    @property
    def raw_rounds_per_s(self) -> float:
        return self.rounds / self.raw_busy


def run_pass(ops, clock, tracer, errors: list) -> Pass:
    """Run every operation once: time the program call, then check its outputs."""
    stats = Pass()
    before = calibrate()
    for op in ops:
        stats.attempted += 1
        setup0 = clock.seconds
        t0 = time.perf_counter()
        try:
            result = op.run(tracer)
        except Exception as exc:  # a failing operation is counted, not fatal
            result = exc
        wall = time.perf_counter() - t0
        setup = clock.seconds - setup0
        after = calibrate()
        scale = CAL_REF / ((before + after) / 2.0)
        before = after
        if isinstance(result, Exception):
            stats.failed += 1
            errors.append(f"{type(result).__name__}: {result}")
            continue
        stats.rounds += op.rounds
        stats.busy += (wall - setup) * scale
        stats.setup += setup * scale
        stats.raw_busy += wall - setup
        stats.raw_setup += setup
        try:
            problems = op.check(result)
            stats.csv_bytes += sum(os.path.getsize(p) for p in op.files())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            stats.failed += 1
            errors.extend(problems)
    return stats
