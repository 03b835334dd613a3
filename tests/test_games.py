import json
import os
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmsim import IID, Game, GameFormatError, parse_game, resolve_game
from pmsim.engine import sample_index
from pmsim.games import LOSS_RANGE, draw_index
from _mc import _inverse_cdf

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

BANDIT_DOC = json.dumps({"loss": [[0, 1], [1, 0]], "signals": [["0", "1"], ["1", "0"]]})


def test_parse_deterministic_round_trip():
    game = parse_game(BANDIT_DOC)
    assert game.n_actions == 2 and game.n_outcomes == 2
    assert not game.random_signals
    np.testing.assert_array_equal(game.loss, [[0, 1], [1, 0]])
    assert parse_game(json.dumps(game.to_dict())).to_dict() == game.to_dict()


def test_parse_bad_distribution_names_position():
    doc = {
        "loss": [[0, 1], [1, 0]],
        "signal_dists": [
            [{"a": 1.0}, {"a": 1.0}],
            [{"a": 0.4, "b": 0.5}, {"a": 1.0}],
        ],
    }
    with pytest.raises(GameFormatError, match=r"row 2 col 1: distribution sums to 0.9"):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"loss": [[0, 1], [1, 0, 0]], "signals": [["a", "b"], ["a", "b"]]},   # ragged loss
    {"loss": [[0, 1], [1, 0]], "signals": [["a", "b"]]},                  # missing row
    {"loss": [[0, 1], [1, 0]], "signals": [["a"], ["a", "b"]]},           # short row
    {"loss": [[0, 1]], "signals": [["a", "b"]]},                          # N < 2
    {"loss": [[0], [1]], "signals": [["a"], ["b"]]},                      # M < 2
    {"loss": [[0, 1], [1, 0]]},                                           # no feedback
    {"loss": [[0, 1], [1, 0]], "signals": [["a", "b"], ["a", "b"]],
     "signal_dists": [[{"a": 1.0}] * 2] * 2},                             # both kinds
    {"loss": [[0, 1], [1, 0]],
     "signal_dists": [[{"a": None}, {"a": 1.0}], [{"a": 1.0}] * 2]},      # weight null
    {"loss": [[0, 1], [1, 0]], "signal_dists": [[{"a": 1.0}, {"a": "0.5", "b": 0.5}],
                                                [{"a": 1.0}] * 2]},       # weight a string
    {"loss": [[0, 1], [1, 0]], "signal_dists": [[{"a": 1.0}] * 2,
                                                [{"a": 1.0}, {"a": float("nan")}]]},  # NaN
    {"loss": [[0, 1], [1, 0]],
     "signal_dists": [[{"a": True}, {"a": 1.0}], [{"a": 1.0}] * 2]},      # weight a bool
    {"loss": [[0, 1], ["0", 0]], "signals": [["a", "b"], ["a", "b"]]},    # loss a string
    {"loss": [[0, True], [1, 0]], "signals": [["a", "b"], ["a", "b"]]},   # loss a bool
    {"loss": [[0, 10 ** 400], [1, 0]], "signals": [["a", "b"], ["a", "b"]]},  # beyond float
])
def test_parse_rejects_malformed(doc):
    with pytest.raises(GameFormatError):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize("doc, where", [
    ({"loss": [[0, 1], [1, 0]], "signal_dists": [[{"a": 1.0}] * 2, [{"a": 1.0}, {"a": None}]]},
     "row 2 col 2: weight None for symbol 'a'"),
    ({"loss": [[0, 1], [1, 0]], "signal_dists": [[{"a": float("nan")}, {"a": 1.0}],
                                                 [{"a": 1.0}] * 2]},
     "row 1 col 1: weight nan for symbol 'a'"),
    ({"loss": [[0, 1], [1, "0"]], "signals": [["a", "b"], ["a", "b"]]}, "loss row 2 col 2: '0'"),
    ({"loss": [[0, 1], [True, 0]], "signals": [["a", "b"], ["a", "b"]]}, "loss row 2 col 1: True"),
])
def test_parse_names_the_entry_that_is_not_a_number(doc, where):
    with pytest.raises(GameFormatError, match=f"^{re.escape(where)} is not a finite number$"):
        parse_game(json.dumps(doc))


def test_parse_rejects_negative_weight():
    doc = {"loss": [[0, 1], [1, 0]],
           "signal_dists": [[{"a": 1.2, "b": -0.2}, {"a": 1.0}], [{"a": 1.0}] * 2]}
    with pytest.raises(GameFormatError, match=r"row 1 col 1.*negative"):
        parse_game(json.dumps(doc))


def test_parse_rejects_nonfinite_loss():
    with pytest.raises(GameFormatError, match="finite"):
        Game.deterministic([[0, float("inf")], [1, 0]], [["a", "b"], ["a", "b"]])


def test_signal_matrix_first_occurrence_order():
    game = Game.deterministic([[0, 1, 2], [1, 1, 1]], [["a", "b", "a"], ["z", "z", "z"]])
    sm = game.signal_matrix(0)
    assert sm.symbols == ("a", "b")
    np.testing.assert_array_equal(sm.matrix, [[1, 0, 1], [0, 1, 0]])
    constant = game.signal_matrix(1)
    assert constant.symbols == ("z",)
    np.testing.assert_array_equal(constant.matrix, [[1, 1, 1]])


def test_signal_matrix_random_transcription():
    game = Game.with_random_signals(
        [[0, 1], [1, 0]],
        [[{"a": 0.3, "b": 0.7}, {"a": 1.0}], [{"c": 1.0}, {"c": 1.0}]],
    )
    xi = game.signal_matrix(0)
    assert xi.symbols == ("a", "b")
    np.testing.assert_allclose(xi.matrix, [[0.3, 1.0], [0.7, 0.0]])


def test_stacked_signal_matrix_bandit(bandit_mp):
    stacked = bandit_mp.stacked_signal_matrix(0, 1)
    # hand enumeration: both rows have symbols ("0","1") in column order, so
    # each block is the identity
    np.testing.assert_array_equal(stacked, [[1, 0], [0, 1], [1, 0], [0, 1]])


def test_stacked_signal_matrix_apple_tasting(apple_tasting):
    np.testing.assert_array_equal(
        apple_tasting.stacked_signal_matrix(0, 1), [[1, 1], [1, 0], [0, 1]])


def test_stacked_row_count_and_self_pair_error(full_info_3x3):
    game = full_info_3x3
    for i in range(3):
        for j in range(3):
            if i == j:
                with pytest.raises(ValueError):
                    game.stacked_signal_matrix(i, j)
            else:
                stacked = game.stacked_signal_matrix(i, j)
                assert stacked.shape[0] == (game.signal_matrix(i).n_symbols
                                            + game.signal_matrix(j).n_symbols)


def test_observe_deterministic_is_pure():
    game = Game.deterministic([[0, 1, 0], [1, 0, 1]], [["a", "b", "a"], ["c", "c", "c"]])
    assert game.observe(0, 2) == 0  # symbol "a"
    assert game.observe(0, 2) == 0
    assert game.observe(0, 1) == 1 and game.observe(1, 1) == 0


def test_observe_degenerate_distribution_is_constant():
    game = Game.with_random_signals(
        [[0, 1], [1, 0]], [[{"a": 1.0}, {"b": 1.0}], [{"c": 1.0}] * 2])
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert game.observe(0, 0, rng) == 0


def test_observe_monte_carlo_frequency():
    game = Game.with_random_signals(
        [[0, 1], [1, 0]], [[{"a": 0.5, "b": 0.5}, {"a": 1.0}], [{"c": 1.0}] * 2])
    rng = np.random.default_rng(12345)
    n = 100_000
    hits = sum(game.observe(0, 0, rng) == 0 for _ in range(n))
    assert abs(hits / n - 0.5) < 0.01


@pytest.mark.parametrize("name", ["bandit_mp_random", "noisy3.json", "bandit3.json"])
def test_observation_is_a_symbol_with_positive_probability(name, monkeypatch):
    monkeypatch.chdir(DATA)
    game, _ = resolve_game(name)
    rng = np.random.default_rng(3)
    for _ in range(600):
        i, j = int(rng.integers(game.n_actions)), int(rng.integers(game.n_outcomes))
        sym = game.observe(i, j, rng)
        assert type(sym) is int
        assert 0 <= sym < game.signal_matrix(i).n_symbols
        assert game.signal_matrix(i).matrix[sym, j] > 0


class TopUniform:
    """A generator whose every uniform is 1 - 2**-53, the largest ``random()`` returns."""

    def random(self):
        return 1.0 - 2.0 ** -53


TENTHS = [0.1] * 10  # summed left to right: 1 - 2**-53, so the top uniform is past the total


def test_every_sampler_past_the_total_returns_the_last_positive_index():
    assert list(accumulate(TENTHS))[-1] == TopUniform().random()
    assert sample_index(TopUniform(), np.array(TENTHS + [0.0])) == 9

    adversary = IID(TENTHS + [0.0])
    adversary.bind(None, TopUniform())
    assert adversary.next_outcome(1, None) == 9

    # symbol "z" is action 0's eleventh symbol, with weight 0 under outcome 0
    cell = {f"s{k}": w for k, w in enumerate(TENTHS)}
    game = Game.with_random_signals([[0, 1], [1, 0]], [[cell, {"z": 1.0}], [{"c": 1.0}] * 2])
    assert game.signal_matrix(0).symbols[-1] == "z"
    assert game.observe(0, 0, TopUniform()) == 9
    assert game.observe(0, 1, TopUniform()) == 10

    # the vectorised sampler of the unbiasedness checks, on the row as it is and
    # padded, as rows of unequal length are, with copies of its total
    cum = list(accumulate(TENTHS + [0.0]))
    top = np.array([TopUniform().random()])
    assert _inverse_cdf(np.array([cum]), top).tolist() == [9]
    assert _inverse_cdf(np.array([cum + [cum[-1]] * 3]), top).tolist() == [9]


class Uniform:
    """A generator whose next uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_vectorised_test_sampler_follows_draw_index():
    """``_mc._inverse_cdf`` picks what ``draw_index`` picks, zero weights and short totals too."""
    rng = np.random.default_rng(53)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        w = rng.random(n) * (rng.random(n) < 0.7)  # about a third of the weights are zero
        if not w.any():
            continue
        cum = list(accumulate((w / w.sum() * rng.uniform(0.98, 1.0)).tolist()))
        us = rng.random(40).tolist() + [cum[-1], TopUniform().random()]
        want = [draw_index(Uniform(u), cum) for u in us]
        assert _inverse_cdf(np.array([cum] * len(us)), np.array(us)).tolist() == want


def test_columns_stay_stochastic_after_parse():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n, m = rng.integers(2, 5), rng.integers(2, 5)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(m):
                w = rng.random(rng.integers(1, 4))
                w /= w.sum()
                row.append({f"s{k}": float(x) for k, x in enumerate(w)})
            rows.append(row)
        game = Game.with_random_signals(rng.random((n, m)) + 0.0, rows)
        for i in range(n):
            cols = game.signal_matrix(i).matrix.sum(axis=0)
            np.testing.assert_allclose(cols, 1.0, atol=1e-12)


def test_reparse_is_deterministic(bandit_mp_random):
    doc = json.dumps(bandit_mp_random.to_dict())
    a, b = parse_game(doc), parse_game(doc)
    for i in range(a.n_actions):
        assert a.signal_matrix(i).symbols == b.signal_matrix(i).symbols
        np.testing.assert_array_equal(a.signal_matrix(i).matrix, b.signal_matrix(i).matrix)


_SYMBOLS = st.sampled_from(["0", "1", "2", "*", "hit", "miss"])
_LOSS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def game_docs(draw):
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    doc = {"loss": draw(st.lists(st.lists(_LOSS, min_size=m, max_size=m),
                                 min_size=n, max_size=n))}
    if draw(st.booleans()):
        doc["signals"] = draw(st.lists(st.lists(_SYMBOLS, min_size=m, max_size=m),
                                       min_size=n, max_size=n))
    else:
        cells = []
        for _ in range(n * m):
            counts = draw(st.dictionaries(_SYMBOLS, st.integers(0, 9), min_size=1))
            if not any(counts.values()):
                counts[next(iter(counts))] = 1
            total = sum(counts.values())
            cells.append({sym: c / total for sym, c in counts.items()})
        doc["signal_dists"] = [cells[i * m:(i + 1) * m] for i in range(n)]
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=game_docs())
@example(doc={"loss": [[0, 0], [0, 5e-324]], "signals": [["0", "0"], ["0", "0"]]})
def test_to_dict_round_trips_through_parse_game(doc):
    """A document round-trips, or, exactly when its nonzero max|L| lies outside
    [2**-256, 2**256], it is refused naming the loss."""
    top = max(abs(x) for row in doc["loss"] for x in row)
    if top and not 1.0 / LOSS_RANGE <= top <= LOSS_RANGE:
        with pytest.raises(GameFormatError, match="loss"):
            parse_game(json.dumps(doc))
        return
    game = parse_game(json.dumps(doc))
    out = game.to_dict()
    again = parse_game(json.dumps(out))
    assert again.to_dict() == out
    assert np.array_equal(again.loss, game.loss) and again.loss.tolist() == doc["loss"]
    assert again.random_signals == game.random_signals == ("signal_dists" in doc)
    for a, b in zip(again.signal_matrices, game.signal_matrices):
        assert a.symbols == b.symbols and np.array_equal(a.matrix, b.matrix)
    if "signals" in doc:
        assert out == doc
