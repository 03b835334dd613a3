"""The set-up's verdicts do not depend on the unit the losses are written in.

Every committed game (the catalog and ``tests/data``) scaled by ``2**j`` gets
every margin, observer, residual and ``v_bar`` scaled by ``2**j`` bit for bit;
scaled by ``1e12`` or ``1e-12`` it keeps its graph, its dominated and
degenerate findings and its observability verdict.  A loss matrix outside the
documented range is refused as malformed input.
"""

import glob
import json
import os

import pytest

from pmsim import GameFormatError, analyze_geometry, catalog, check_game, load_game
from pmsim.cli import main
from pmsim.games import LOSS_RANGE, game_from_dict
from pmsim.geometry import cell_margin, loss_unit, pair_margin

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

GAMES = {**{entry.name: entry.game for entry in catalog()},
         **{os.path.basename(path): load_game(path)
            for path in sorted(glob.glob(os.path.join(DATA, "*.json")))}}


def scaled(game, factor):
    doc = game.to_dict()
    doc["loss"] = (game.loss * factor).tolist()
    return game_from_dict(doc)


def set_up(game):
    """Margins (cell, then pair in key order) and, per pair, v and the residual, and v_bar."""
    graph, report = analyze_geometry(game)
    observers = check_game(game, graph)
    margins = report.cell_margins.tolist() + [graph.margins[p] for p in sorted(graph.margins)]
    values = margins + [x for v, residual in zip(observers.v, observers.residual.tolist())
                        for x in v.tolist() + [residual]]
    return values, observers.v_bar


def verdicts(game):
    graph, report = analyze_geometry(game)
    observers = check_game(game, graph)
    return (graph.neighbors, report.dominated_actions, report.degenerate_witnesses,
            observers.locally_observable,
            list(zip(observers.pairs, observers.observable.tolist())))


def hexes(values):
    return [v.hex() for v in values]


def test_committed_games_need_no_rescaling():
    assert all(loss_unit(game.loss) == 1.0 for game in GAMES.values())


@pytest.mark.parametrize("name", sorted(GAMES))
def test_power_of_two_scaling_scales_every_set_up_value_bit_for_bit(name):
    values, v_bar = set_up(GAMES[name])
    for j in range(-60, 61):
        factor = 2.0 ** j
        got, got_v_bar = set_up(scaled(GAMES[name], factor))
        assert hexes(got) == hexes([v * factor for v in values]), j
        assert got_v_bar.hex() == (v_bar * factor).hex(), j


@pytest.mark.parametrize("name", sorted(GAMES))
@pytest.mark.parametrize("factor", [1e12, 1e-12])
def test_decimal_scaling_keeps_every_verdict(name, factor):
    assert verdicts(scaled(GAMES[name], factor)) == verdicts(GAMES[name])


def test_single_margins_scale_with_the_loss():
    L = GAMES["voronoi_n16.json"].loss
    for factor in (2.0 ** -40, 2.0 ** 40):
        assert cell_margin(L * factor, 3).hex() == (cell_margin(L, 3) * factor).hex()
        assert pair_margin(L * factor, 0, 5).hex() == (pair_margin(L, 0, 5) * factor).hex()


@pytest.mark.parametrize("top", [LOSS_RANGE * 2.0, 1e308, 0.5 / LOSS_RANGE, 1e-300])
def test_loss_out_of_range_is_refused(top):
    with pytest.raises(GameFormatError, match=r"^loss matrix: largest \|entry\|"):
        game_from_dict({"loss": [[0.0, top], [-top, 0.0]], "signals": [["0", "1"], ["1", "0"]]})


@pytest.mark.parametrize("top", [LOSS_RANGE, 1.0 / LOSS_RANGE])
def test_loss_at_the_range_ends_runs(tmp_path, capsys, top):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"loss": [[0.0, top], [top, 0.0]],
                                "signals": [["0", "1"], ["1", "0"]]}))
    assert main(["run", "--game", str(path), "--T", "50", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("command", [["check"], ["graph"], ["run", "--T", "10", "--game"]])
def test_overflowing_bandit_exits_2_without_nan(tmp_path, capsys, command):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"loss": [[-1e308, 1e308], [1e308, -1e308]],
                                "signals": [["0", "1"], ["1", "0"]]}))
    code = main([*command, str(path), *(["--out", str(tmp_path / "out")]
                                        if command[0] == "run" else [])])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("pm: loss matrix") and "Traceback" not in err and "NaN" not in err
    assert not (tmp_path / "out").exists()

