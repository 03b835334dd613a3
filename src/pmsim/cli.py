"""Command-line front end.

Exit codes: 0 success, 1 internal solver failure (LP or fixed point),
2 usage or malformed input, 3 not locally observable, 4 dominated or degenerate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DegenerateGameError, DominatedActionError, GameFormatError, \
    NotLocallyObservableError, PmsimError
from .geometry import analyze_geometry, build_graph
from .harness import ExperimentConfig, resolve_game, run_experiment
from .observability import check_game

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_UNOBSERVABLE = 3
EXIT_BAD_GEOMETRY = 4


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(doc) -> None:
    print(json.dumps(_jsonable(doc), indent=2))


def _cmd_check(args) -> int:
    game, name = resolve_game(args.game)
    graph, _ = analyze_geometry(game)
    report = check_game(game, graph)
    _emit({"game": name, **report.to_dict()})
    return EXIT_OK if report.locally_observable else EXIT_UNOBSERVABLE


def _cmd_graph(args) -> int:
    game, name = resolve_game(args.game)
    graph, report = build_graph(game)
    _emit({
        "game": name,
        "neighbors": [list(ns) for ns in graph.neighbors],
        "pair_margins": [
            {"i": i, "j": j, "margin": m} for (i, j), m in sorted(graph.margins.items())
        ],
        "cell_margins": report.cell_margins.tolist(),
    })
    return EXIT_OK


def _flag(field: str, parse, text: str | None):
    try:
        return parse(text) if text else None
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _eta_gamma(text: str):
    return text if text == "auto" else float(text)


def _cmd_run(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ValueError(f"config: invalid JSON: {exc}") from None
        except OSError as exc:  # missing, unreadable, a directory
            raise ValueError(f"config: cannot read {args.config!r}: "
                             f"{exc.strerror or exc}") from None
        config = ExperimentConfig.from_dict(doc)
    else:
        if not args.game:
            raise GameFormatError("either --config or --game is required")
        config = ExperimentConfig(
            game=args.game,
            adversary=args.adversary,
            horizons=_flag("horizons", _int_list, args.T),
            seeds=_flag("seeds", _int_list if "," in args.seeds else int, args.seeds),
            eta=_flag("eta", _eta_gamma, args.eta),
            gamma=_flag("gamma", _eta_gamma, args.gamma),
            checkpoints=_flag("checkpoints", _int_list, args.checkpoints),
            out_dir=args.out,
        )
    result = run_experiment(config)
    _emit(result.summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pm", description="Partial-monitoring game simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify local observability of a game")
    p.add_argument("game", help="game JSON path or catalog name")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("graph", help="print the neighborhood graph and margins")
    p.add_argument("game", help="game JSON path or catalog name")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("run", help="run a seeded experiment sweep")
    p.add_argument("--config", help="experiment config JSON (overrides other flags)")
    p.add_argument("--game", help="game JSON path or catalog name")
    p.add_argument("--adversary", default="uniform",
                   help="uniform | iid:p0,p1,... | fixed:j0,j1,... | adaptive[:window]")
    p.add_argument("--T", default="1000", help="comma-separated horizons")
    p.add_argument("--seeds", default="1", help="replicate count, or comma-separated seeds")
    p.add_argument("--eta", default="auto", help="learning rate, or 'auto'")
    p.add_argument("--gamma", default="auto", help="exploration mix, or 'auto'")
    p.add_argument("--checkpoints", default=None, help="comma-separated checkpoint rounds")
    p.add_argument("--out", default="pm_out", help="output directory")
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GameFormatError, ValueError, OSError) as exc:
        print(f"pm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotLocallyObservableError as exc:
        print(f"pm: not locally observable: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except (DominatedActionError, DegenerateGameError) as exc:
        print(f"pm: unusable game geometry: {exc}", file=sys.stderr)
        return EXIT_BAD_GEOMETRY
    except PmsimError as exc:
        print(f"pm: internal solver failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
