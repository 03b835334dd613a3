"""The names the benchmark's span tracer binds in pmsim still exist and still work.

``bench/spans.py`` imports pmsim modules and wraps their functions by name;
if a refactor renames one, ``python3 bench/run.py`` fails before it measures
anything.  This installs the tracer and the set-up clock around one short
run, as a traced benchmark pass does, and checks what they recorded.

The benchmark also reports ``correct=false`` when a workload's reference
outputs no longer hash to ``bench/reference_digests.json``, and counts an
operation whose checks fail.  The last test runs every workload's reference
pass and checks both, so a refactor that would trip either fails here first.
"""

import importlib
import json
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
                for name in ("engine.fixed_point", "engine.sample_index", "games.observe",
                             "adversaries.next_outcome")}
    # one flow solve (the N = 2 balance equation too) and two draws (k, then I) through
    # the module globals, one signal and one move per round
    assert spans_of == {"engine.fixed_point": 200, "engine.sample_index": 400,
                        "games.observe": 200, "adversaries.next_outcome": 200}
    assert pmsim.engine.invoke is originals[[t[1] for t in spans.TARGETS].index("invoke")]
    # a stale binding of the solver would read 0 LP calls instead of failing
    analyses, lp_calls = ((arr["name"] == tracer.names.index(name)).sum()
                          for name in ("geometry.analyze", "simplex.solve_lp"))
    assert analyses >= 1 and lp_calls >= analyses


def test_workloads_pass_their_checks_and_match_the_reference_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(tmp_path)  # the workloads write under bench_out/
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restore them afterwards
    run, spans, workloads = (importlib.import_module(m) for m in ("run", "spans", "workloads"))
    with open(os.path.join(BENCH, "reference_digests.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    assert sorted(reference) == sorted(workloads.WORKLOADS)
    for name, make in workloads.WORKLOADS.items():
        ops = make(run.REFERENCE_SEED, os.path.join(run.OUT, name, "reference"))
        for op in ops:
            assert op.check(op.run(spans.NullTracer())) == [], name
        assert run.digests(ops) == reference[name], name
