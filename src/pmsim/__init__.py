"""Simulator for finite partial-monitoring games.

Core pieces: game/feedback model (`games`), best-response geometry and the
neighborhood graph (`geometry`), observer vectors (`observability`), the
per-vertex learners (`learner`), the two-level sampling engine (`engine`),
pluggable opponents (`adversaries`), exact regret accounting (`regret`), and
the experiment harness (`harness`).
"""

from .adversaries import AdaptiveWorst, FixedSequence, IID
from .engine import Engine, EngineConfig, Transcript, auto_eta, auto_gamma, fixed_point, run
from .errors import (
    DegenerateGameError,
    DominatedActionError,
    FixedPointError,
    GameFormatError,
    NotLocallyObservableError,
    PmsimError,
)
from .games import Game, SignalMatrix, load_game, parse_game
from .geometry import (
    NeighborhoodGraph,
    analyze_geometry,
    best_response,
    build_graph,
    cell_margin,
    pair_margin,
    second_best,
)
from .harness import (
    CatalogEntry,
    ExperimentConfig,
    catalog,
    fit_slope,
    make_adversary,
    resolve_game,
    run_experiment,
)
from .observability import ObservabilityReport, check_game
from .regret import RegretCurves, RegretReport, regret_curves, regret_report, theorem_bound

__all__ = [
    "AdaptiveWorst", "CatalogEntry", "DegenerateGameError", "DominatedActionError",
    "Engine", "EngineConfig", "ExperimentConfig", "FixedPointError", "FixedSequence",
    "Game", "GameFormatError", "IID", "NeighborhoodGraph", "NotLocallyObservableError",
    "ObservabilityReport", "PmsimError", "RegretCurves", "RegretReport", "SignalMatrix",
    "Transcript", "analyze_geometry",
    "auto_eta", "auto_gamma", "best_response", "build_graph", "catalog",
    "cell_margin", "check_game", "fit_slope", "fixed_point", "load_game",
    "make_adversary", "pair_margin", "parse_game", "regret_curves", "regret_report",
    "resolve_game", "run", "run_experiment", "second_best", "theorem_bound",
]

__version__ = "0.1.0"
