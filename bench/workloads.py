"""The benchmark's workloads: inputs made from a seed, program calls, checks.

A workload is a list of operations.  One operation is one top-level call
into pmsim (``pmsim.run_experiment`` or ``pmsim.cli.main``) followed by the
checks of its outputs; a pass runs every operation of the workload once.
Only the program call is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
import pmsim
import pmsim.cli

SWEEP_GAMES = ("bandit_mp", "apple_tasting", "bandit_mp_random")
SWEEP_ADVERSARIES = ("uniform", "adaptive")
SWEEP_HORIZONS = [250, 1000]
SWEEP_SEEDS = 3

WIDE_N, WIDE_M = 16, 6
WIDE_GAMES = 4
WIDE_HORIZONS = [100, 400]
WIDE_SEEDS = 2
WIDE_QS = 200  # sampled q per game for the second-nearest check
WIDE_DRAWS = 4  # draws per game slot while build_graph raises LPSolverError

DENSE_OPS = 2
DENSE_SEEDS = 2  # per operation; pm run reads a single value as a count


def replicate_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return sorted(int(s) for s in rng.choice(1_000_000, size=count, replace=False))


class GameFacts:
    """What the checks know about a game, computed once outside the timed region."""

    def __init__(self, doc: dict):
        game = pmsim.parse_game(json.dumps(doc))
        self.doc = doc
        self.n = game.n_actions
        self.errors: list[str] = []  # every operation on this game fails with these
        try:
            self.graph, _ = pmsim.build_graph(game)
            if not pmsim.check_game(game, self.graph).locally_observable:
                self.errors.append("check_game: not locally observable")
        except pmsim.PmsimError as exc:
            self.graph = None
            self.errors.append(f"build_graph: {type(exc).__name__}: {exc}")
        pairs = self.graph.neighbor_pairs() if self.graph else []
        self.v_bar = checks.v_bar(doc, pairs)


class SweepOp:
    """One ``pmsim.run_experiment`` call over horizons x seeds, checkpoints at the horizons."""

    def __init__(self, game: str, facts: GameFacts, adversary: str, horizons, seeds, out_dir):
        self.facts = facts
        self.config = pmsim.ExperimentConfig(
            game=game, adversary=adversary, horizons=list(horizons), seeds=list(seeds),
            checkpoints=list(horizons), out_dir=out_dir)
        self.rounds = sum(horizons) * len(seeds)

    def run(self, tracer):
        return tracer.call("harness.run_experiment", pmsim.run_experiment, self.config)

    def files(self) -> list[str]:
        cfg = self.config
        return [os.path.join(cfg.out_dir, f"run_T{T}_seed{s}.csv")
                for T in cfg.horizons for s in cfg.seeds] + \
            [os.path.join(cfg.out_dir, "summary.json")]

    def check(self, result) -> list[str]:
        errors = list(self.facts.errors)
        cfg, facts = self.config, self.facts
        with open(os.path.join(cfg.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary != result.summary:
            errors.append("summary.json differs from the returned summary")
        if not math.isclose(summary["v_bar"], facts.v_bar, rel_tol=1e-9):
            errors.append(f"v_bar {summary['v_bar']!r} != pinv recomputation {facts.v_bar!r}")
        for h, T in enumerate(cfg.horizons):
            bound = checks.theorem_bound(facts.n, facts.v_bar, T)
            mean = summary["mean_int_regret"][h]
            if not math.isclose(summary["theorem_bound"][h], bound, rel_tol=1e-9):
                errors.append(f"T={T}: theorem_bound {summary['theorem_bound'][h]!r} != {bound!r}")
            if not mean <= bound:
                errors.append(f"T={T}: mean internal regret {mean!r} over the bound {bound!r}")
            finals = []
            for s in cfg.seeds:
                header, rows = checks.read_csv(os.path.join(cfg.out_dir, f"run_T{T}_seed{s}.csv"))
                last = dict(zip(header, rows[-1]))
                expected_ts = [c for c in cfg.checkpoints if c <= T]
                if [int(r[0]) for r in rows] != expected_ts:
                    errors.append(f"T={T} seed={s}: rows at {[r[0] for r in rows]}, "
                                  f"expected {expected_ts}")
                finals.append(float(last["int_regret"]))
            if float(np.mean(finals)) != mean:
                errors.append(f"T={T}: summary mean {mean!r} != mean of CSV finals "
                              f"{float(np.mean(finals))!r}")
        return errors


class CliOp:
    """``pm run --game full_info_3x3 --adversary adaptive`` through ``pmsim.cli.main``.

    Everything but the seed list and the output directory is a ``pm run``
    default: T=1000, eta/gamma auto, a checkpoint every round.
    """

    horizon = 1000  # the pm run default

    def __init__(self, facts: GameFacts, seeds, out_dir):
        self.facts = facts
        self.seeds = list(seeds)
        self.out_dir = out_dir
        self.argv = ["run", "--game", "full_info_3x3", "--adversary", "adaptive",
                     "--seeds", ",".join(map(str, seeds)), "--out", out_dir]
        self.rounds = self.horizon * len(seeds)
        loss = np.asarray(facts.doc["loss"], dtype=float)
        n = loss.shape[0]
        mask = np.zeros((n, n), dtype=bool)
        for i, j in facts.graph.neighbor_pairs():
            mask[i, j] = True
        self.loss, self.mask = loss, mask

    def run(self, tracer):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tracer.call("cli.main", pmsim.cli.main, self.argv)
        return code, out.getvalue()

    def files(self) -> list[str]:
        return [os.path.join(self.out_dir, f"run_T{self.horizon}_seed{s}.csv")
                for s in self.seeds] + [os.path.join(self.out_dir, "summary.json")]

    def check(self, result) -> list[str]:
        errors = list(self.facts.errors)
        code, stdout = result
        if code != 0:
            return errors + [f"pm run exited {code}"]
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
            if json.load(fh) != json.loads(stdout):
                errors.append("printed summary differs from summary.json")
        for path in self.files()[:-1]:
            header, rows = checks.read_csv(path)
            table = np.array(rows, dtype=float)
            col = {name: table[:, k] for k, name in enumerate(header)}
            if not np.array_equal(col["t"], np.arange(1, self.horizon + 1)):
                errors.append(f"{path}: rows are not t = 1..{self.horizon}")
                continue
            want = checks.regret_columns(self.loss, col["I"].astype(int),
                                         col["j"].astype(int), self.mask)
            for name, values in want.items():
                bad = np.flatnonzero(col[name] != values)
                if bad.size:
                    t = bad[0]
                    errors.append(f"{path}: {name} at t={t + 1} is {col[name][t]!r}, "
                                  f"recomputed {values[t]!r}")
        return errors


def voronoi_doc(rng: np.random.Generator, n: int, m: int) -> tuple[dict, np.ndarray]:
    """Random game whose best-response cells are the Voronoi cells of its centers.

    ``loss[i][j] = |e_j - c_i|^2``, so the expected loss against q is
    ``|q - c_i|^2 - |q|^2 + 1`` and the best response is the nearest center.
    Centers are drawn from the flat Dirichlet on the simplex, so every cell
    holds its own center and no action is dominated.  Feedback is full
    information: every action sees the outcome.
    """
    centers = rng.dirichlet(np.ones(m), size=n)
    loss = [[sum((float(j == k) - c[k]) ** 2 for k in range(m)) for j in range(m)]
            for c in centers]
    return {"loss": loss, "signals": [[str(j) for j in range(m)]] * n}, centers


def sweep_n2(seed: int, out: str) -> list:
    rng = np.random.default_rng(seed)
    seeds = replicate_seeds(rng, SWEEP_SEEDS)
    ops = []
    for game in SWEEP_GAMES:
        facts = GameFacts(pmsim.resolve_game(game)[0].to_dict())
        for adversary in SWEEP_ADVERSARIES:
            ops.append(SweepOp(game, facts, adversary, SWEEP_HORIZONS, seeds,
                               os.path.join(out, f"op{len(ops)}")))
    return ops


def wide_n16(seed: int, out: str) -> list:
    """Four Voronoi games, each run against ``adaptive``.

    About one drawn game in 120 makes ``build_graph`` raise ``LPSolverError``
    ("phase 1 reported an unbounded auxiliary problem"), a fault of pmsim's
    simplex solver, not of the input.  An operation that fails on some seeds
    only cannot be kept in the workload, so such a game is replaced by the
    next draw, up to ``WIDE_DRAWS`` draws per game, and each replacement is
    printed.  Any other failure, or one that persists, fails the game's
    operations.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out, exist_ok=True)
    ops = []
    for g in range(WIDE_GAMES):
        for draw in range(WIDE_DRAWS):
            doc, centers = voronoi_doc(rng, WIDE_N, WIDE_M)
            facts = GameFacts(doc)
            lp_fault = any("LPSolverError" in e for e in facts.errors)
            if not lp_fault or draw == WIDE_DRAWS - 1:
                break
            print(f"wide_n16: seed {seed}: redrew game {g}: {'; '.join(facts.errors)}")
        path = os.path.join(out, f"game{g}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        qs = rng.dirichlet(np.ones(WIDE_M), size=WIDE_QS)
        if facts.graph is not None:
            facts.errors += checks.second_nearest_are_neighbors(
                centers, facts.graph.neighbors, qs)
        ops.append(SweepOp(path, facts, "adaptive", WIDE_HORIZONS,
                           replicate_seeds(rng, WIDE_SEEDS), os.path.join(out, f"op{g}")))
    return ops


def csv_dense(seed: int, out: str) -> list:
    rng = np.random.default_rng(seed)
    facts = GameFacts(pmsim.resolve_game("full_info_3x3")[0].to_dict())
    seeds = replicate_seeds(rng, DENSE_OPS * DENSE_SEEDS)
    return [CliOp(facts, seeds[k::DENSE_OPS], os.path.join(out, f"op{k}"))
            for k in range(DENSE_OPS)]


WORKLOADS = {"sweep_n2": sweep_n2, "wide_n16": wide_n16, "csv_dense": csv_dense}
