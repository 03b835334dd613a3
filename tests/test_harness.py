import json
import math

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
from pmsim.harness import CSV_COLUMNS


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
    lines = open(result.csv_paths[0]).read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 11  # header + one row per round
    summary = json.loads(open(result.summary_path).read())
    assert summary["game"] == "bandit_mp"
    assert summary["N"] == 2 and summary["M"] == 2
    assert summary["horizons"] == [10]
    assert summary["slope"] is None
    assert summary["theorem_bound"][0] == theorem_bound(2, summary["v_bar"], 10)


def test_run_experiment_checkpoint_rows(tmp_path):
    config = ExperimentConfig(game="bandit_mp", horizons=[50], seeds=[3],
                              checkpoints=[10, 50], out_dir=str(tmp_path))
    result = run_experiment(config)
    lines = open(result.csv_paths[0]).read().splitlines()
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
        outs.append([open(p, "rb").read() for p in result.csv_paths]
                    + [open(result.summary_path, "rb").read()])
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
