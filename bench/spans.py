"""In-memory spans around the calls the benchmark makes into pmsim's layers.

Spans are recorded by wrapping a layer's public function where its caller's
module binds it (``pmsim.engine.fixed_point``, ``Engine.step``, ...), so the
program itself is not edited.  Each span keeps its name, its parent span, the
operation (one top-level program call) it belongs to, and its start and end
in nanoseconds.  Nothing is written until :meth:`Tracer.save`.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import pmsim.cli
import pmsim.engine
import pmsim.geometry
import pmsim.harness
from pmsim.adversaries import AdaptiveWorst, FixedSequence, IID
from pmsim.engine import Engine
from pmsim.games import Game
from pmsim.regret import RegretTracker

# (owner, attribute, span name): every place a traced layer is entered
TARGETS = [
    (pmsim.harness, "analyze_geometry", "geometry.analyze"),
    (pmsim.harness, "check_game", "observability.check"),
    (pmsim.geometry, "solve_lp", "simplex.solve_lp"),
    (pmsim.cli, "run_experiment", "harness.run_experiment"),
    (Engine, "run", "engine.run"),
    (Engine, "step", "engine.step"),
    (pmsim.engine, "fixed_point", "engine.fixed_point"),
    (pmsim.engine, "sample_index", "engine.sample_index"),
    (pmsim.engine, "invoke", "learner.invoke"),
    (Game, "observe", "games.observe"),
    (IID, "next_outcome", "adversaries.next_outcome"),
    (AdaptiveWorst, "next_outcome", "adversaries.next_outcome"),
    (FixedSequence, "next_outcome", "adversaries.next_outcome"),
    (RegretTracker, "update", "regret.update"),
]


class SetupClock:
    """Accumulates time spent in the harness's set-up calls, traced or not.

    ``analyze_geometry`` and ``check_game`` are what a run pays before its
    first round; the untraced measurement needs that time to subtract it.
    """

    def __init__(self):
        self.seconds = 0.0
        self._saved = []

    def install(self) -> None:
        for attr in ("analyze_geometry", "check_game"):
            fn = getattr(pmsim.harness, attr)
            self._saved.append((attr, fn))
            setattr(pmsim.harness, attr, self._timed(fn))

    def uninstall(self) -> None:
        for attr, fn in reversed(self._saved):
            setattr(pmsim.harness, attr, fn)
        self._saved.clear()

    def _timed(self, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        return timed


class NullTracer:
    """Untraced calls: same interface as :class:`Tracer`, no recording."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.buffer_len = array("i")  # learner buffer length before each invoke
        self._stack = [-1]
        self._op = -1
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Root span of one operation: a top-level call into the program."""
        self._op += 1
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            traced = self.wrap(fn, name)
            if attr == "invoke":
                traced = self._counting_invoke(traced)
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _counting_invoke(self, traced):
        lengths = self.buffer_len

        def invoke(state, observers):
            lengths.append(len(state.buffer))  # read before the call, outside its span
            return traced(state, observers)

        return invoke

    def mark(self) -> tuple[int, int]:
        """Current (span count, invocation count), to slice one pass out later."""
        return len(self.start), len(self.buffer_len)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "buffer_len": np.frombuffer(self.buffer_len, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# per-call self time in microseconds, from the span of the given name
PER_CALL = {
    "simplex.lp_us": "simplex.solve_lp",
    "engine.fixed_point_us": "engine.fixed_point",
    "learner.invoke_us": "learner.invoke",
    "engine.step_self_us": "engine.step",
    "engine.sample_index_us": "engine.sample_index",
    "games.observe_us": "games.observe",
    "adversaries.next_outcome_us": "adversaries.next_outcome",
    "regret.update_us": "regret.update",
}


def layer_metrics(tracer: Tracer, passes) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    ``passes`` holds one ``(start mark, end mark, scale)`` per traced pass;
    span durations are multiplied by their pass's scale, the same rescaling
    to reference speed that the pass's end-to-end figures get.  Per-call
    metrics average over every traced call; per-pass metrics are medians
    over the traced passes.
    """
    arr = tracer.arrays()
    dur = (arr["end_ns"] - arr["start_ns"]) / 1e9
    for (s0, _), (s1, _), scale in passes:
        dur[s0:s1] *= scale
    parent = arr["parent"]
    has_parent = parent >= 0
    own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    ids = {n: k for k, n in enumerate(tracer.names)}
    is_span = {n: arr["name"] == k for n, k in ids.items()}

    def spans(name, s0=0, s1=None):
        sel = is_span.get(name, np.zeros(len(dur), dtype=bool)).copy()
        sel[:s0] = False
        if s1 is not None:
            sel[s1:] = False
        return sel

    metrics = {}
    for metric, name in PER_CALL.items():
        sel = spans(name)
        metrics[metric] = float(own[sel].sum() / max(sel.sum(), 1) * 1e6)
    step = spans("engine.step")
    metrics["engine.step_us"] = float(dur[step].sum() / max(step.sum(), 1) * 1e6)

    def persist(s0, s1):
        # run_experiment time that is neither set-up nor Engine.run
        roots = spans("harness.run_experiment", s0, s1)
        inner = spans("geometry.analyze", s0, s1) | spans("observability.check", s0, s1) \
            | spans("engine.run", s0, s1)
        inner &= np.isin(parent, np.flatnonzero(roots))
        return dur[roots].sum() - dur[inner].sum()

    per_pass = {
        "geometry.analyze_s": lambda s0, s1: dur[spans("geometry.analyze", s0, s1)].sum(),
        "observability.check_s": lambda s0, s1: dur[spans("observability.check", s0, s1)].sum(),
        "simplex.lp_calls": lambda s0, s1: spans("simplex.solve_lp", s0, s1).sum(),
        "learner.invocations": lambda s0, s1: spans("learner.invoke", s0, s1).sum(),
        "harness.persist_s": persist,
    }
    for metric, fn in per_pass.items():
        metrics[metric] = float(np.median([fn(s0, s1) for (s0, _), (s1, _), _ in passes]))
    lengths = np.concatenate([arr["buffer_len"][b0:b1] for (_, b0), (_, b1), _ in passes])
    metrics["learner.buffer_len"] = float(lengths.mean())
    return metrics
