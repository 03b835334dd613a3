import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pmsim.cli
import pmsim.engine
import pmsim.geometry
from pmsim.cli import main
from pmsim.errors import FixedPointError, LPSolverError


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_observable_game(capsys):
    code, out, _ = run_cli(capsys, "check", "bandit_mp")
    assert code == 0
    doc = json.loads(out)
    assert doc["locally_observable"] is True
    assert doc["v_bar"] == pytest.approx(0.5, abs=1e-9)


def test_check_unobservable_game(capsys):
    code, out, _ = run_cli(capsys, "check", "label_efficient")
    assert code == 3
    assert json.loads(out)["locally_observable"] is False


def test_graph_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "bandit_mp")
    assert code == 0
    doc = json.loads(out)
    assert doc["neighbors"] == [[0, 1], [0, 1]]
    assert doc["pair_margins"] == [{"i": 0, "j": 1, "margin": "inf"}]


@pytest.mark.parametrize("name", ["voronoi_n16_lpfault_a.json", "voronoi_n16_lpfault_b.json"])
def test_graph_on_phase1_drift_games(capsys, name):
    code, out, err = run_cli(capsys, "graph", os.path.join(DATA, name))
    assert code == 0, err
    assert len(json.loads(out)["neighbors"]) == 16


DOMINATED = {"loss": [[0, 1], [1, 0], [0.6, 0.6]], "signals": [["0", "1"]] * 3}


def test_graph_rejects_dominated(tmp_path, capsys):
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(DOMINATED))
    code, _, err = run_cli(capsys, "graph", str(path))
    assert code == 4
    assert "dominated" in err


def test_graph_rejects_degenerate(tmp_path, capsys):
    doc = {"loss": [[0, 1], [1, 0], [0.5, 0.5]],
           "signals": [["0", "1"]] * 3}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "graph", str(path))
    assert code == 4
    assert "geometry" in err


def test_run_rejects_disconnected_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pmsim.geometry.NeighborhoodGraph, "is_connected", lambda self: False)
    code, _, err = run_cli(capsys, "run", "--game", "bandit_mp", "--T", "10",
                           "--out", str(tmp_path))
    assert code == 4
    assert "disconnected" in err


def test_run_with_flags(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", "--game", "bandit_mp", "--adversary", "iid:0.5,0.5",
        "--T", "20,40", "--seeds", "2", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["horizons"] == [20, 40]
    assert (tmp_path / "summary.json").exists()
    assert len(list(tmp_path.glob("run_T*_seed*.csv"))) == 4


def test_run_with_config_file(tmp_path, capsys):
    config = {"game": "apple_tasting", "adversary": "adaptive", "horizons": [25],
              "seeds": 1, "checkpoints": [25], "out_dir": str(tmp_path / "out")}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert json.loads(out)["game"] == "apple_tasting"


def test_run_refuses_unobservable(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--game", "label_efficient",
                           "--T", "10", "--out", str(tmp_path))
    assert code == 3
    assert "not locally observable" in err
    assert (tmp_path / "classification.json").exists()


@pytest.mark.parametrize("game, adversary, expected", [
    ("bandit_mp", "iid:0.5,0.5,0", 2),  # refused when the adversary is built for the game
    (DOMINATED, "uniform", 4),  # refused by the geometry gate
])
def test_refused_run_leaves_no_output_directory(tmp_path, capsys, game, adversary, expected):
    if isinstance(game, dict):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        game = str(path)
    code, _, err = run_cli(capsys, "run", "--game", game, "--adversary", adversary, "--T", "10",
                           "--out", str(tmp_path / "out"))
    assert code == expected and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys, "check", "no_such_game")[0] == 2
    assert run_cli(capsys, "run", "--game", "bandit_mp", "--adversary", "zap",
                   "--out", str(tmp_path))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "check", str(bad))[0] == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("flags, field", [
    (["--seeds", "0"], "seeds"),
    (["--T", "0"], "horizons"),
    (["--T", "-5"], "horizons"),
    (["--T", "50,50"], "horizons"),
    (["--adversary", "fixed:0,1", "--T", "5"], "adversary"),
    (["--adversary", "fixed:0,5", "--T", "2"], "adversary"),
    (["--adversary", "iid:0.5,0.5,0"], "adversary"),
    (["--eta", "nan"], "eta"),
    (["--eta", "-1"], "eta"),
    (["--gamma", "1.5"], "gamma"),
    (["--T", "200", "--checkpoints", "0"], "checkpoints"),
    (["--T", "200", "--checkpoints", "500"], "checkpoints"),
    (["--T", "200,600", "--checkpoints", "300,600"], "checkpoints"),
    (["--T", "10,x"], "horizons"),
    (["--seeds", "1,a"], "seeds"),
    (["--checkpoints", "5,y"], "checkpoints"),
    (["--eta", "abc"], "eta"),
    (["--gamma", "x"], "gamma"),
    (["--adversary", "iid:a,b"], "adversary"),
    (["--adversary", "fixed:"], "adversary"),
    (["--adversary", "adaptive:x"], "adversary"),
    (["--adversary", "nope"], "adversary"),
    (["--adversary", "uniform:xyz"], "adversary"),
    (["--adversary", "uniform:"], "adversary"),
    (["--adversary", "iid:"], "adversary"),
    (["--adversary", "adaptive:"], "adversary"),
])
def test_run_rejects_bad_input(tmp_path, capsys, flags, field):
    code, out, err = run_cli(capsys, "run", "--game", "bandit_mp", "--T", "10",
                             *flags, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"pm: {field}") and "Traceback" not in err
    for path in tmp_path.glob("**/*.json"):
        assert "NaN" not in path.read_text()
    assert "NaN" not in out


@pytest.mark.parametrize("adversary", [5, {"kind": "fixed"}])
def test_run_rejects_bad_adversary_in_config(tmp_path, capsys, adversary):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"game": "bandit_mp", "adversary": adversary, "horizons": [10],
                                "out_dir": str(tmp_path / "out")}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert err.startswith("pm: adversary") and "Traceback" not in err


FIXED_2 = {"horizons": [2]}  # a two-outcome sequence covers the horizon
MISSING = object()  # drops the key from the document


@pytest.mark.parametrize("doc, field", [
    ([1], "config"),
    ({"game": MISSING}, "game"),
    ({"game": None}, "game"),
    ({"game": ["bandit_mp"]}, "game"),
    ({"checkpoints": 5}, "checkpoints"),
    ({"checkpoints": ["a"]}, "checkpoints"),
    ({"checkpoints": [1.7]}, "checkpoints"),
    ({"out_dir": 5}, "out_dir"),
    ({"horizons": 5}, "horizons"),
    ({"horizons": [True]}, "horizons"),
    ({"seeds": True}, "seeds"),
    ({"eta": True}, "eta"),
    ({"gamma": False}, "gamma"),
    ({"adversary": {"kind": "adaptive", "window": "x"}}, "adversary"),
    ({"adversary": {"kind": "adaptive", "window": True}}, "adversary"),
    ({"adversary": {"kind": "fixed", "outcomes": "ab"}, **FIXED_2}, "adversary"),
    ({"adversary": {"kind": "fixed", "outcomes": [0.5, 1]}, **FIXED_2}, "adversary"),
    ({"adversary": {"kind": "iid", "dist": 5}}, "adversary"),
    ({"adversary": {"kind": "iid", "dist": [True, False]}}, "adversary"),
    ({"checkpoints": [0, 10]}, "checkpoints"),
    ({"checkpoints": [11]}, "checkpoints"),  # horizon 10 would get no row
    ({"adversary": {"kind": "adaptive", "windw": 5}}, "adversary"),
    ({"adversary": {"kind": "iid", "dist": [0.5, 0.5], "outcomes": [1]}}, "adversary"),
])
def test_run_rejects_bad_config_document(tmp_path, capsys, doc, field):
    """Each document exits 2 naming the field; none ends in a traceback or runs."""
    if isinstance(doc, dict):
        doc = {"game": "bandit_mp", "horizons": [10], "out_dir": str(tmp_path / "out"), **doc}
        doc = {k: v for k, v in doc.items() if v is not MISSING}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert err.startswith(f"pm: {field}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b'{"game": "bandit_mp", "horizons": [10', b"\xff\xfe{}"])
def test_run_rejects_unreadable_config_file(tmp_path, capsys, content):
    """A truncated document and one that is not UTF-8 exit 2 naming the config."""
    path = tmp_path / "exp.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert err.startswith("pm: config: invalid JSON: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_run_rejects_a_config_path_it_cannot_read(tmp_path, capsys, name):
    """A missing file, or a directory, exits 2 naming the config."""
    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / name))
    assert code == 2
    assert err.startswith("pm: config: cannot read ") and "Traceback" not in err


def test_run_with_overflowing_eta_takes_the_limit(tmp_path, capsys):
    """The overflow of ``-eta * f`` is handled silently: any warning fails the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "run", "--game", "bandit_mp", "--T", "50",
                                 "--eta", "1e308", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "NaN" not in out
    for path in tmp_path.glob("**/*.json"):
        assert "NaN" not in path.read_text()


def test_solver_failures_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_lp(game):
        raise LPSolverError("phase 1 reported an unbounded auxiliary problem")

    def failing_fixed_point(*args):
        raise FixedPointError("power iteration did not converge")

    monkeypatch.setattr(pmsim.cli, "build_graph", failing_lp)
    code, out, err = run_cli(capsys, "graph", "bandit_mp")
    assert code == 1 and out == ""
    assert err == "pm: internal solver failure: phase 1 reported an unbounded auxiliary problem\n"

    monkeypatch.setattr(pmsim.engine, "fixed_point", failing_fixed_point)
    code, _, err = run_cli(capsys, "run", "--game", "bandit_mp", "--T", "10",
                           "--out", str(tmp_path))
    assert code == 1
    assert err == "pm: internal solver failure: power iteration did not converge\n"


# valid and invalid values per flag of pm run, on bandit_mp (two outcomes);
# every valid horizon is in 2..8, so a one-outcome fixed: sequence is too short
RUN_FLAGS = {
    "--T": (["2", "5", "3,8"],
            ["0", "-5", "nan", "inf", "1e400", "", "2.5", "4,4", "abc"]),
    "--eta": (["auto", "0.3", "1e-300", "1e308"],
              ["0", "-1", "nan", "inf", "-inf", "", "fast"]),
    "--gamma": (["auto", "0", "0.5", "1"],
                ["-0.1", "1.5", "nan", "inf", "1e308", ""]),
    "--seeds": (["1", "2", "0,7", "18446744073709551616,1"],
                ["0", "-1", "", "nan", "1,1", "2.5", "1e400", "1,-3"]),
    "--adversary": (["uniform", "adaptive", "adaptive:3", "iid:0.25,0.75",
                     "fixed:" + ",".join("01" * 4)],
                    ["adaptive:0", "adaptive:-2", "iid:0.5,0.5,0", "iid:1", "iid:nan,nan",
                     "iid:inf,-inf", "iid:0.7,0.7", "fixed:0", "fixed:0,2,0,1,0,1,0,1",
                     "fixed:", "zap", ""]),
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=st.sets(st.sampled_from(sorted(RUN_FLAGS)), max_size=2), data=st.data())
def test_run_flags_exit_0_or_2_without_nan(capsys, bad, data):
    """Good flags with up to two bad ones: exit 0 if none is bad, else 2; never a NaN."""
    argv = ["run", "--game", "bandit_mp"]
    for flag, (good, wrong) in RUN_FLAGS.items():
        argv.append(f"{flag}={data.draw(st.sampled_from(wrong if flag in bad else good))}")
    with tempfile.TemporaryDirectory() as out_dir:
        code, out, err = run_cli(capsys, *argv, "--out", out_dir)
        written = [path.read_text() for path in Path(out_dir).glob("**/*.json")]
    assert code == (2 if bad else 0), (argv, err)
    assert "Traceback" not in err
    assert "NaN" not in out and not any("NaN" in text for text in written)
