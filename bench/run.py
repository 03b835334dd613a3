#!/usr/bin/env python3
"""pmsim benchmark: end-to-end throughput and a traced per-layer profile.

    python3 bench/run.py --workload sweep_n2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each
    python3 bench/run.py --write-reference           # regenerate reference_digests.json

Runs from a source checkout: pmsim is imported from ``src/`` beside this
directory and outputs go to ``bench_out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  bench/README.md describes the workloads and the metrics.
"""

import os

# one core per workload: pin BLAS before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = "bench_out"
REFERENCE = os.path.join(BENCH, "reference_digests.json")
REFERENCE_SEED = 0
WORKLOAD_NAMES = ("sweep_n2", "wide_n16", "csv_dense")

UNITS = {
    "rounds_per_s": "rounds/s", "setup_s": "s", "peak_rss_mb": "MB",
    "geometry.analyze_s": "s", "simplex.lp_calls": "count", "simplex.lp_us": "us",
    "observability.check_s": "s", "engine.fixed_point_us": "us",
    "learner.invoke_us": "us", "learner.invocations": "count",
    "learner.buffer_len": "count", "engine.step_self_us": "us",
    "engine.sample_index_us": "us", "games.observe_us": "us",
    "adversaries.next_outcome_us": "us", "regret.update_us": "us",
    "harness.persist_s": "s", "harness.csv_bytes": "B", "engine.step_us": "us",
    "trace.rounds_per_s": "rounds/s", "trace.overhead_pct": "%",
}


def import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "pmsim", "__init__.py")):
        sys.exit(f"bench: no pmsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import pmsim
    if not os.path.abspath(pmsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported pmsim from {pmsim.__file__}, not from {SRC}")
    sys.path.insert(0, BENCH)


def digests(ops) -> dict:
    """SHA-256 over the CSV bytes and over the summary bytes of a pass."""
    csv_hash, summary_hash = hashlib.sha256(), hashlib.sha256()
    for op in ops:
        for path in filter(os.path.exists, op.files()):  # a failed call may write nothing
            with open(path, "rb") as fh:
                (summary_hash if path.endswith(".json") else csv_hash).update(fh.read())
    return {"csv": csv_hash.hexdigest(), "summary": summary_hash.hexdigest()}


def reference_pass(name, clock, errors) -> dict:
    """One pass on the fixed reference inputs; returns the digests of its outputs."""
    from measure import run_pass
    from spans import NullTracer
    from workloads import WORKLOADS

    ops = WORKLOADS[name](REFERENCE_SEED, os.path.join(OUT, name, "reference"))
    run_pass(ops, clock, NullTracer(), errors)
    return digests(ops)


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from measure import run_pass
    from spans import NullTracer, SetupClock, Tracer, layer_metrics
    from workloads import WORKLOADS

    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    clock = SetupClock()
    clock.install()
    reference = reference_pass(name, clock, [])  # also the warm-up: only its bytes count
    ops = WORKLOADS[name](seed, os.path.join(out, f"seed{seed}"))

    errors: list[str] = []
    untraced, traced, marks = [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_pass(ops, clock, NullTracer(), errors))
        if trace:  # alternate, so both kinds of pass see the same host
            before = tracer.mark()
            tracer.install()
            try:
                traced.append(run_pass(ops, clock, tracer, errors))
            finally:
                tracer.uninstall()
            marks.append((before, tracer.mark(), traced[-1].busy / traced[-1].raw_busy))
        if time.perf_counter() >= deadline:
            break
    clock.uninstall()

    passes = untraced + traced
    for line in sorted(set(errors))[:20]:
        print(f"{name}: check failed: {line}", file=sys.stderr)
    if not all(p.rounds for p in passes):
        sys.exit(f"bench: {name}: a pass completed no operation")

    expected = load_reference().get(name)
    correct = expected == reference
    if not correct:
        print(f"{name}: digests {reference} of the seed-{REFERENCE_SEED} outputs differ from "
              f"{expected} in {os.path.relpath(REFERENCE, ROOT)}", file=sys.stderr)
    rates = [p.raw_rounds_per_s for p in untraced]
    print(f"{name}: seed {REFERENCE_SEED} digests csv {reference['csv']} "
          f"summary {reference['summary']} ({'match' if correct else 'MISMATCH'})")
    last = digests(ops)
    print(f"{name}: seed {seed} digests csv {last['csv']} summary {last['summary']}")
    print(f"{name}: seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes of "
          f"{len(ops)} operations and {sum(op.rounds for op in ops)} rounds; wall-clock "
          f"rounds/s min {min(rates):.0f} median {statistics.median(rates):.0f} "
          f"max {max(rates):.0f}")
    with open(os.path.join(out, f"passes_seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"untraced": [vars(p) for p in untraced],
                   "traced": [vars(p) for p in traced]}, fh)

    if trace:
        metrics = layer_metrics(tracer, marks)
        metrics["harness.csv_bytes"] = statistics.median(p.csv_bytes for p in traced)
        metrics["trace.rounds_per_s"] = statistics.median(p.rounds_per_s for p in traced)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(p.rounds_per_s for p in untraced)
            / metrics["trace.rounds_per_s"] - 1.0)
        path = os.path.join(out, f"trace_seed{seed}.npz")
        tracer.save(path)
        print(f"{name}: {len(tracer)} spans written to {path}")
    else:
        metrics = {
            "rounds_per_s": statistics.median(p.rounds_per_s for p in untraced),
            "setup_s": statistics.median(p.setup for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def write_reference() -> None:
    from spans import SetupClock

    doc = {}
    for name in WORKLOAD_NAMES:
        errors: list[str] = []
        doc[name] = reference_pass(name, SetupClock(), errors)
        if errors:
            sys.exit(f"bench: reference pass of {name} failed its checks: {errors[:3]}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")


def run_all(args) -> None:
    """Every workload in its own process, one after another, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"\n{'workload':<10} {'metric':<28} {'value':>14}  unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<10} {metric:<28} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<10} {'operations attempted/failed':<28} "
              f"{res['attempted']:>9}/{res['failed']:<4}  correct={res['correct']}")
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference digests and exit")
    args = parser.parse_args()
    args.seed %= 2 ** 63  # numpy seeds are non-negative

    os.chdir(ROOT)  # output paths, and so the game paths in summaries, are relative to it
    import_program()
    if args.write_reference:
        write_reference()
    elif args.workload == "all":
        run_all(args)
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
