"""Experiment orchestration: game catalog, seeded sweeps, CSV/JSON persistence.

A sweep runs one game against one adversary kind over a grid of horizons and
seeds, writes one CSV per run plus a summary with mean/std regret curves, the
guarantee values, and a log-log slope fit of mean internal regret against the
horizon.  Identical configurations produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields
from typing import Any, NamedTuple

import numpy as np

from .adversaries import Adversary, AdaptiveWorst, FixedSequence, IID
from .engine import Engine, EngineConfig, check_rates, is_integer, is_number, is_seed
from .errors import GameFormatError, NotLocallyObservableError
from .games import Game, game_from_dict, load_game
from .geometry import analyze_geometry, strict_gate
from .observability import check_game
from .regret import RegretReport, regret_report, theorem_bound

CSV_COLUMNS = ["t", "k", "I", "j", "loss", "cum_loss",
               "ext_regret", "int_regret", "local_int_regret"]
ADVERSARY_KEYS = {"iid": {"dist"}, "fixed": {"outcomes"}, "adaptive": {"window"}}  # besides "kind"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    game: Game
    expected_observable: bool


# name -> (game document, expected local observability)
CATALOG: dict[str, tuple[dict, bool]] = {
    "bandit_mp": ({"loss": [[0, 1], [1, 0]], "signals": [["0", "1"], ["1", "0"]]}, True),
    # bandit_mp with every symbol noised into a 0.9/0.1 mixture
    "bandit_mp_random": ({"loss": [[0, 1], [1, 0]], "signal_dists": [
        [{"0": 0.9, "1": 0.1}, {"1": 0.9, "0": 0.1}],
        [{"1": 0.9, "0": 0.1}, {"0": 0.9, "1": 0.1}]]}, True),
    "apple_tasting": ({"loss": [[1, 0], [0, 1]], "signals": [["*", "*"], ["0", "1"]]}, True),
    "label_efficient": ({"loss": [[1, 1], [0, 1], [1, 0]],
                         "signals": [["0", "1"], ["*", "*"], ["#", "#"]]}, False),
    "full_info_3x3": ({"loss": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                       "signals": [["0", "1", "2"]] * 3}, True),
}


def catalog() -> list[CatalogEntry]:
    """Stock games from :data:`CATALOG`: observable classics, one unobservable game."""
    return [CatalogEntry(name, game_from_dict(doc), ok) for name, (doc, ok) in CATALOG.items()]


def resolve_game(name_or_path: str) -> tuple[Game, str]:
    """Catalog name, or a path to a game document."""
    if name_or_path in CATALOG:
        return game_from_dict(CATALOG[name_or_path][0]), name_or_path
    if os.path.exists(name_or_path):
        return load_game(name_or_path), name_or_path
    raise GameFormatError(f"no catalog game or file named {name_or_path!r}")


def _list_of(check, x) -> bool:
    return isinstance(x, (list, tuple)) and all(map(check, x))


def _shorthand_doc(spec: str) -> dict:
    kind, colon, arg = spec.partition(":")
    if colon and not arg:
        raise ValueError("empty argument after ':'")
    if kind == "uniform":
        if arg:
            raise ValueError("kind 'uniform' takes no argument")
        return {"kind": "iid", "dist": "uniform"}
    if kind == "iid":
        return {"kind": "iid", "dist": [float(x) for x in arg.split(",")] if arg else "uniform"}
    if kind == "fixed":
        return {"kind": "fixed", "outcomes": [int(x) for x in arg.split(",")]}
    if kind == "adaptive":
        return {"kind": "adaptive", "window": int(arg) if arg else None}
    raise ValueError("unknown kind")


def _adversary_doc(spec: Any) -> dict:
    """Dict form of an adversary spec given as a dict or a shorthand string, type-checked."""
    if isinstance(spec, str):
        try:
            spec = _shorthand_doc(spec)
        except ValueError as exc:
            raise ValueError(f"adversary: bad spec {spec!r}: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"adversary: need a spec string or object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in ADVERSARY_KEYS:
        raise ValueError(f"adversary: unknown kind {kind!r}")
    unknown = set(spec) - {"kind"} - ADVERSARY_KEYS[kind]
    if unknown:
        raise ValueError(f"adversary: unknown keys {sorted(unknown, key=str)} for kind {kind!r}")
    if kind == "iid":
        dist = spec.get("dist", "uniform")
        if dist != "uniform" and not _list_of(is_number, dist):
            raise ValueError(f"adversary: iid dist must be 'uniform' or numbers, got {dist!r}")
    elif kind == "fixed":
        if not _list_of(is_integer, spec.get("outcomes", [])):
            raise ValueError(f"adversary: need integer fixed outcomes, got {spec['outcomes']!r}")
    else:
        window = spec.get("window")
        if not (window is None or (is_integer(window) and window >= 1)):
            raise ValueError(f"adversary: need a positive integer window or null, got {window!r}")
    return spec


def make_adversary(spec: Any, game: Game) -> Adversary:
    """Build an adversary from a dict or a shorthand string.

    Strings: ``uniform``, ``iid:0.5,0.5``, ``fixed:0,1,0,...``, ``adaptive``
    or ``adaptive:WINDOW``.
    """
    spec = _adversary_doc(spec)
    kind = spec.get("kind")
    m = game.n_outcomes
    if kind == "iid":
        dist = spec.get("dist", "uniform")
        if dist == "uniform":
            dist = [1.0 / m] * m
        if len(dist) != m:
            raise ValueError(f"adversary: iid distribution has {len(dist)} entries, "
                             f"the game has {m} outcomes")
        try:
            return IID(dist)
        except ValueError as exc:
            raise ValueError(f"adversary: {exc}") from None
    if kind == "fixed":
        outcomes = spec.get("outcomes", [])
        bad = [j for j in outcomes if not 0 <= j < m]
        if bad:
            raise ValueError(f"adversary: fixed outcome {bad[0]} is not in 0..{m - 1}")
        return FixedSequence(outcomes)
    return AdaptiveWorst(spec.get("window"))


class SlopeFit(NamedTuple):
    slope: float
    clamped_points: int


def fit_slope(points) -> SlopeFit:
    """Least-squares slope of log(value) against log(horizon).

    Values below 1 are raised to 1 before taking logs; the number of
    non-positive points is part of the result.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError("slope fit needs at least two points")
    clamped = sum(1 for _, y in points if y <= 0)
    xs = np.log([float(t) for t, _ in points])
    ys = np.log([max(float(y), 1.0) for _, y in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SlopeFit(slope, clamped)


@dataclass
class ExperimentConfig:
    game: str
    adversary: Any = "uniform"
    horizons: list[int] = field(default_factory=lambda: [1000])
    seeds: Any = 1  # count (replicate index is the seed) or explicit list
    eta: Any = "auto"
    gamma: Any = "auto"
    checkpoints: list[int] | None = None
    out_dir: str = "pm_out"

    def __post_init__(self):
        """Refuse, naming the field, input that would crash a run, write NaN or be rounded."""
        for name in ("game", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name}: need a name or a path, got {getattr(self, name)!r}")
        if not (_list_of(is_integer, self.horizons) and self.horizons and min(self.horizons) >= 1
                and len(set(self.horizons)) == len(self.horizons)):
            raise ValueError(f"horizons: need distinct integers of at least 1, "
                             f"got {self.horizons!r}")
        self.seed_list()
        check_rates(self.eta, self.gamma)
        if not (self.checkpoints is None or _list_of(is_integer, self.checkpoints)):
            raise ValueError(f"checkpoints: need a list of integers, got {self.checkpoints!r}")
        if self.checkpoints and min(self.checkpoints) < 1:
            raise ValueError(f"checkpoints: need rounds of at least 1, got {self.checkpoints!r}")
        if self.checkpoints and min(self.checkpoints) > min(self.horizons):
            # rounds past a horizon are dropped from its CSV, which would then have no row
            raise ValueError(f"checkpoints: horizon {min(self.horizons)} would get no row; "
                             f"need a checkpoint at or below it, got {self.checkpoints!r}")
        spec = _adversary_doc(self.adversary)
        n_fixed = len(spec.get("outcomes", []))
        if spec.get("kind") == "fixed" and n_fixed < max(self.horizons):
            raise ValueError(f"adversary: fixed sequence has {n_fixed} outcomes, "
                             f"fewer than the largest horizon {max(self.horizons)}")

    def seed_list(self) -> list[int]:
        if is_integer(self.seeds):
            seeds = list(range(self.seeds))
        elif _list_of(is_seed, self.seeds):
            seeds = [int(s) for s in self.seeds]
        else:
            raise ValueError(f"seeds: need a count or a list of non-negative integers, "
                             f"got {self.seeds!r}")
        if not seeds:
            raise ValueError(f"seeds: need at least one seed, got {self.seeds!r}")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct: {seeds}")
        return seeds

    @classmethod
    def from_dict(cls, doc: Any) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config: need a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        if "game" not in doc:
            raise ValueError("game: missing from the config")
        return cls(**doc)


@dataclass
class ExperimentResult:
    summary: dict
    summary_path: str
    csv_paths: list[str]


def _write_run_csv(path: str, transcript, loss: np.ndarray, report: RegretReport) -> None:
    """Write one run's rows at the report's checkpoint rounds; ``loss`` is the game's matrix."""
    rows = np.asarray(report.checkpoints, dtype=np.intp) - 1
    action, outcome = transcript.action[rows], transcript.outcome[rows]
    columns = [report.checkpoints, transcript.k[rows].tolist(), action.tolist(),
               outcome.tolist(), loss[action, outcome].tolist()]
    columns += [report.curves[name] for name in ("cum_loss", "external", "internal",
                                                 "local_internal")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))  # csv writes Python floats as repr()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the sweep described by ``config`` and persist CSVs plus a summary.

    Games failing the observability gate are refused: a classification
    report is written and NotLocallyObservableError raised.  Games that then
    fail :func:`~pmsim.geometry.strict_gate` are refused with its errors.
    """
    game, game_name = resolve_game(config.game)
    graph, geo = analyze_geometry(game)
    observers = check_game(game, graph)

    if not observers.locally_observable:
        report = {
            "game": game_name,
            "locally_observable": False,
            "observability": observers.to_dict(),
            "dominated_actions": geo.dominated_actions,
            "degenerate_witnesses": [list(w) for w in geo.degenerate_witnesses],
        }
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, "classification.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        raise NotLocallyObservableError(
            f"{game_name}: pairs without observers {observers.unobservable_pairs()} "
            f"(report at {path})"
        )
    strict_gate(graph, geo)

    horizons = sorted(config.horizons)
    seeds = config.seed_list()
    csv_paths = []
    final_int = {T: [] for T in horizons}
    for T in horizons:
        for seed in seeds:
            engine = Engine(game, make_adversary(config.adversary, game), T,
                            EngineConfig(eta=config.eta, gamma=config.gamma, seed=seed),
                            observers=observers)
            transcript = engine.run()
            report = regret_report(transcript, game.loss, graph, observers.v_bar,
                                   config.checkpoints)
            os.makedirs(config.out_dir, exist_ok=True)  # not before: a refused run makes none
            path = os.path.join(config.out_dir, f"run_T{T}_seed{seed}.csv")
            _write_run_csv(path, transcript, game.loss, report)
            final_int[T].append(report.internal)
            csv_paths.append(path)

    means = [float(np.mean(final_int[T])) for T in horizons]
    stds = [float(np.std(final_int[T])) for T in horizons]
    fit = fit_slope(zip(horizons, means)) if len(horizons) >= 2 else None
    summary = {
        "game": game_name,
        "N": game.n_actions,
        "M": game.n_outcomes,
        "v_bar": observers.v_bar,
        "l_bar": observers.l_bar,
        "eta": config.eta,
        "gamma": config.gamma,
        "horizons": horizons,
        "mean_int_regret": means,
        "std_int_regret": stds,
        "theorem_bound": [theorem_bound(game.n_actions, observers.v_bar, T) for T in horizons],
        "slope": fit.slope if fit else None,
        "clamped_points": fit.clamped_points if fit else 0,
    }
    summary_path = os.path.join(config.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return ExperimentResult(summary, summary_path, csv_paths)
