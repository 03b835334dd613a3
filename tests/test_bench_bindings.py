"""The names the benchmark's span tracer binds in pmsim still exist and still work.

``bench/spans.py`` imports pmsim modules and wraps their functions by name;
if a refactor renames one, ``python3 bench/run.py`` fails before it measures
anything.  This installs the tracer and the set-up clock around one short
run, as a traced benchmark pass does, and checks what they recorded.
"""

import importlib
import os

import numpy as np

import pmsim.engine
import pmsim.harness
from pmsim import ExperimentConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_and_setup_clock_wrap_a_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    tracer, clock = spans.Tracer(), spans.SetupClock()
    config = ExperimentConfig(game="bandit_mp", adversary="adaptive", horizons=[200], seeds=1,
                              out_dir=str(tmp_path))
    clock.install()
    try:
        tracer.install()
        try:
            result = tracer.call("harness.run_experiment", pmsim.harness.run_experiment, config)
        finally:
            tracer.uninstall()
    finally:
        clock.uninstall()

    assert [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS] == originals
    assert result.summary["horizons"] == [200]
    assert clock.seconds > 0.0
    arr = tracer.arrays()
    invokes = int((arr["name"] == tracer.names.index("learner.invoke")).sum())
    assert invokes == 200  # the sampled learner is invoked every round
    assert len(arr["buffer_len"]) == invokes
    assert 1.0 <= float(np.mean(arr["buffer_len"])) <= 3.0
    spans_of = {name: int((arr["name"] == tracer.names.index(name)).sum())
                for name in ("engine.sample_index", "games.observe", "adversaries.next_outcome")}
    # two draws (k, then I) through the module global, one signal and one move per round
    assert spans_of == {"engine.sample_index": 400, "games.observe": 200,
                        "adversaries.next_outcome": 200}
    assert pmsim.engine.invoke is originals[[t[1] for t in spans.TARGETS].index("invoke")]
