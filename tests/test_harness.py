import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from pmsim import (
    AdaptiveWorst,
    ExperimentConfig,
    FixedSequence,
    IID,
    NotLocallyObservableError,
    analyze_geometry,
    catalog,
    check_game,
    fit_slope,
    make_adversary,
    resolve_game,
    run_experiment,
    theorem_bound,
)
from pmsim import harness
from pmsim.cli import main
from pmsim.errors import FixedPointError, LPSolverError
from pmsim.harness import CSV_COLUMNS

VORONOI_N16 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "voronoi_n16.json")


def test_catalog_contents_and_observability_flags():
    entries = {e.name: e for e in catalog()}
    assert {"bandit_mp", "apple_tasting", "label_efficient", "full_info_3x3"} <= set(entries)
    for entry in entries.values():
        graph, _ = analyze_geometry(entry.game)
        verdict = check_game(entry.game, graph).locally_observable
        assert verdict == entry.expected_observable, entry.name


def test_resolve_game_from_file(tmp_path):
    doc = {"loss": [[0, 1], [1, 0]], "signals": [["a", "b"], ["b", "a"]]}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    game, name = resolve_game(str(path))
    assert game.n_actions == 2 and name == str(path)


def test_make_adversary_specs(bandit_mp):
    assert isinstance(make_adversary("uniform", bandit_mp), IID)
    adv = make_adversary("iid:0.2,0.8", bandit_mp)
    np.testing.assert_allclose(adv.dist, [0.2, 0.8])
    fixed = make_adversary("fixed:1,0,1", bandit_mp)
    assert isinstance(fixed, FixedSequence) and fixed.outcomes == [1, 0, 1]
    adaptive = make_adversary("adaptive:64", bandit_mp)
    assert isinstance(adaptive, AdaptiveWorst) and adaptive.window == 64
    assert make_adversary({"kind": "adaptive"}, bandit_mp).window is None
    with pytest.raises(ValueError):
        make_adversary("nope:1", bandit_mp)


def test_fit_slope_power_laws():
    horizons = [1000, 4000, 16000, 64000]
    exact_root = fit_slope([(t, 3.0 * math.sqrt(t)) for t in horizons])
    assert exact_root.slope == pytest.approx(0.5, abs=1e-9)
    assert exact_root.clamped_points == 0
    assert fit_slope([(t, 0.25 * t) for t in horizons]).slope == pytest.approx(1.0, abs=1e-9)
    assert fit_slope([(t, 42.0) for t in horizons]).slope == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_clamps_nonpositive_points():
    fit = fit_slope([(10, 0.0), (100, 10.0), (1000, 100.0)])
    assert fit.clamped_points == 1
    with pytest.raises(ValueError):
        fit_slope([(10, 1.0)])


def test_run_experiment_tiny(tmp_path):
    config = ExperimentConfig(game="bandit_mp", adversary="uniform", horizons=[10],
                              seeds=1, out_dir=str(tmp_path))
    result = run_experiment(config)
    assert len(result.csv_paths) == 1
    lines = Path(result.csv_paths[0]).read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 11  # header + one row per round
    summary = json.loads(Path(result.summary_path).read_text())
    assert summary["game"] == "bandit_mp"
    assert summary["N"] == 2 and summary["M"] == 2
    assert summary["horizons"] == [10]
    assert summary["slope"] is None
    assert summary["theorem_bound"][0] == theorem_bound(2, summary["v_bar"], 10)


def test_run_experiment_checkpoint_rows(tmp_path):
    config = ExperimentConfig(game="bandit_mp", horizons=[50], seeds=[3],
                              checkpoints=[10, 50], out_dir=str(tmp_path))
    result = run_experiment(config)
    lines = Path(result.csv_paths[0]).read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10" and lines[2].split(",")[0] == "50"


def test_run_experiment_summary_statistics(tmp_path):
    config = ExperimentConfig(game="bandit_mp", horizons=[20, 40], seeds=3,
                              checkpoints=[20, 40], out_dir=str(tmp_path))
    summary = run_experiment(config).summary
    assert len(summary["mean_int_regret"]) == 2
    assert len(summary["std_int_regret"]) == 2
    assert summary["slope"] is not None
    assert summary["theorem_bound"] == [
        theorem_bound(2, summary["v_bar"], 20), theorem_bound(2, summary["v_bar"], 40)]


def test_run_experiment_is_byte_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        config = ExperimentConfig(game="bandit_mp_random", adversary="iid:0.3,0.7",
                                  horizons=[60], seeds=2, out_dir=str(tmp_path / sub))
        result = run_experiment(config)
        outs.append([Path(p).read_bytes() for p in result.csv_paths + [result.summary_path]])
    assert outs[0] == outs[1]


def test_run_experiment_refuses_unobservable(tmp_path):
    config = ExperimentConfig(game="label_efficient", out_dir=str(tmp_path))
    with pytest.raises(NotLocallyObservableError):
        run_experiment(config)
    report = json.loads((tmp_path / "classification.json").read_text())
    assert report["locally_observable"] is False
    assert report["dominated_actions"] == [0]
    assert not list(tmp_path.glob("*.csv"))


def test_config_round_trip():
    config = ExperimentConfig.from_dict({
        "game": "apple_tasting", "adversary": "adaptive", "horizons": [100, 200],
        "seeds": [1, 5], "eta": 0.1, "gamma": 0.0, "out_dir": "x"})
    assert config.seed_list() == [1, 5]
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"game": "bandit_mp", "bogus": 1})


@pytest.mark.parametrize("seeds", [[1.5, 2.7], ["3"], [-1], [True], 1.5, "1,2"])
def test_config_rejects_non_integer_seeds(seeds):
    # 1.5 and 2.7 used to be truncated to seeds 1 and 2 without a word
    with pytest.raises(ValueError, match="^seeds: "):
        ExperimentConfig(game="bandit_mp", seeds=seeds)


def test_config_accepts_numpy_integer_seeds():
    assert ExperimentConfig(game="bandit_mp", seeds=[np.int64(4), 9]).seed_list() == [4, 9]


# --- replicates across processes ---------------------------------------------

def _use_cpus(monkeypatch, k):
    """Pretend the affinity mask holds ``k`` CPUs; count the forks in the parent."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _fail_at(monkeypatch, failures):
    """Make the engine of replicate (T, seed) call ``failures[(T, seed)]`` first."""
    real = harness.Engine

    def engine(game, adversary, T, config, *, observers):
        if (T, config.seed) in failures:
            failures[(T, config.seed)]()
        return real(game, adversary, T, config, observers=observers)

    monkeypatch.setattr(harness, "Engine", engine)


def _raise(exc):
    def fail():
        raise exc
    return fail


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("game, adversary, checkpoints", [
    ("bandit_mp_random", "iid:0.3,0.7", None),
    (VORONOI_N16, "adaptive", [5, 20, 45, 60]),
])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, game, adversary,
                                                   checkpoints):
    outs = []
    for k in (1, 2, 3):
        forks = _use_cpus(monkeypatch, k)
        config = ExperimentConfig(game=game, adversary=adversary, horizons=[45, 20, 60],
                                  seeds=[7, 0, 3], checkpoints=checkpoints,
                                  out_dir=str(tmp_path / f"w{k}"))
        result = run_experiment(config)
        assert len(forks) == k - 1
        assert result.csv_paths == [os.path.join(config.out_dir, f"run_T{T}_seed{s}.csv")
                                    for T in (20, 45, 60) for s in (7, 0, 3)]
        outs.append(_files(tmp_path / f"w{k}"))
    assert len(outs[0]) == 10 and outs[1] == outs[0] and outs[2] == outs[0]


def test_groups_balance_rounds_longest_first():
    replicates = [(T, s) for T in (250, 1000) for s in (1, 2, 3)]
    groups = harness._groups(replicates, 2)
    assert groups == [[(1000, 1), (1000, 3)], [(250, 1), (250, 2), (250, 3), (1000, 2)]]
    assert harness._groups(replicates, 1) == [replicates]
    assert sorted(sum(harness._groups(replicates, 4), [])) == replicates


@pytest.mark.parametrize("k", [1, 2, 3])
def test_earliest_failing_replicate_raises(tmp_path, monkeypatch, capsys, k):
    """Whichever process runs them, the (T, seed)-earliest failure is the error raised."""
    _use_cpus(monkeypatch, k)
    _fail_at(monkeypatch, {
        (20, 0): _raise(ValueError("T=20 seed=0 fails too")),
        (10, 1): _raise(FixedPointError("T=10 seed=1 fails first")),
        (10, 2): _raise(LPSolverError("T=10 seed=2 fails later")),
    })
    config = ExperimentConfig(game="bandit_mp", horizons=[10, 20], seeds=3,
                              out_dir=str(tmp_path / "lib"))
    with pytest.raises(FixedPointError, match="^T=10 seed=1 fails first$"):
        run_experiment(config)
    assert not (tmp_path / "lib" / "summary.json").exists()

    code = main(["run", "--game", "bandit_mp", "--T", "10,20", "--seeds", "3",
                 "--out", str(tmp_path / "cli")])
    err = capsys.readouterr().err
    assert code == 1 and "T=10 seed=1 fails first" in err and "Traceback" not in err
    assert not (tmp_path / "cli" / "summary.json").exists()


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its class takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.parametrize("how", ["exit", "unpicklable"])
def test_worker_that_exits_without_a_result(tmp_path, monkeypatch, capsys, how):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def leave():
        if os.getpid() != parent:
            if how == "exit":
                os._exit(0)
            raise _TwoArgError("a", "b")

    _fail_at(monkeypatch, {(T, s): leave for T in (10, 20) for s in range(3)})
    code = main(["run", "--game", "bandit_mp", "--T", "10,20", "--seeds", "3",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert "its worker process exited without a result" in err
    assert not (tmp_path / "summary.json").exists()


def test_keyboard_interrupt_kills_and_reaps_the_workers(tmp_path, monkeypatch):
    _use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def stall_or_interrupt():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    _fail_at(monkeypatch, {(T, s): stall_or_interrupt for T in (10, 20) for s in range(3)})
    config = ExperimentConfig(game="bandit_mp", horizons=[10, 20], seeds=3,
                              out_dir=str(tmp_path))
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k, seeds", [(1, 3), (4, 1)])
def test_one_cpu_or_one_replicate_never_forks(tmp_path, monkeypatch, k, seeds):
    forks = _use_cpus(monkeypatch, k)
    config = ExperimentConfig(game="bandit_mp", horizons=[15], seeds=seeds,
                              out_dir=str(tmp_path))
    assert len(run_experiment(config).csv_paths) == seeds
    assert forks == []


def test_without_an_affinity_mask_runs_in_one_process(tmp_path, monkeypatch):
    forks = _use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "sched_getaffinity")
    config = ExperimentConfig(game="bandit_mp", horizons=[15], seeds=3, out_dir=str(tmp_path))
    run_experiment(config)
    assert forks == []
