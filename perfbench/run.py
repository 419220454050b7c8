"""Benchmark of the ckext command line, driven in-process through cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload dense-compute --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop: each call starts when the previous
one has returned.  The workload's inputs are drawn from --seed (see
inputs.py) and written as matrix files; the timed loop then runs whole
rounds of the same calls, as many as end nearest to --seconds.  Every output is
checked after the loop (checks.py), and the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced loop
with --trace 1.  Exit code 0 unless the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from inputs import POOLS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
EXIT_NOT_ISOMORPHIC = 3
EXIT_INPUT_ERROR = 2

# (layer function, statistic); counts and self times are per attempted call.
PER_LAYER = (
    ("exactmat.snf", "calls"), ("exactmat.snf", "self_ms"),
    ("exactmat.snf", "max_transform_bits"),
    ("exactmat.determinant", "calls"), ("exactmat.determinant", "self_ms"),
    ("exactmat.inverse_unimodular", "calls"), ("exactmat.inverse_unimodular", "self_ms"),
    ("exactmat.matmul", "calls"), ("exactmat.matmul", "self_ms"),
    ("exactmat.hnf_columns", "calls"), ("exactmat.hnf_columns", "self_ms"),
    ("exactmat.kernel_basis", "calls"), ("exactmat.kernel_basis", "self_ms"),
    ("fgab.cokernel", "calls"), ("fgab.cokernel", "self_ms"),
    ("fgab.class_of", "calls"), ("fgab.class_of", "self_ms"),
    ("invariants.extw", "calls"), ("invariants.exts", "calls"),
    ("invariants.hat_q", "calls"), ("invariants.hat_q", "self_ms"),
    ("invariants.invariants_report", "self_ms"),
    ("invariants.verify_im0_identity", "self_ms"),
    ("invariants.verify_exact_sequence", "self_ms"),
    ("invariants.validate", "self_ms"),
    ("markediso.marked_isomorphic", "calls"), ("markediso.marked_isomorphic", "self_ms"),
    ("markediso.marked_isomorphic", "max_torsion_order"),
    ("cli.load_matrix", "self_ms"), ("cli.main", "self_ms"),
)
UNITS = {"calls": "count/op", "self_ms": "ms/op", "max_transform_bits": "bits",
         "max_torsion_order": "elements"}


def import_ckext():
    """Import ckext.cli afresh from the checkout's src/, so every set-up pays
    for the import."""
    for name in [n for n in sys.modules if n == "ckext" or n.startswith("ckext.")]:
        del sys.modules[name]
    cli = importlib.import_module("ckext.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ckext imported from {cli.__file__}, not from {SRC}")
    return cli


def argv_of(op: Op, workdir: Path) -> list[str]:
    return [op.command, *(str(workdir / f"{p}.txt") for p in op.paths)]


def call(cli, argv: list[str]) -> tuple[int, object, str, str]:
    """One cli.main call with stdout and stderr captured: (ns, rc, out, err).
    An exception escaping cli.main is returned as rc."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, reported below
            rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, rc, out.getvalue(), err.getvalue()


def set_up(workload: str, seed: int, workdir: Path):
    """Import, input generation, file writes and one warm-up call."""
    start = time.perf_counter()
    cli = import_ckext()
    pool = POOLS[workload](random.Random(seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, rows in pool.matrices.items():
        (workdir / f"{name}.txt").write_text(
            "".join(" ".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    call(cli, argv_of(pool.warmup, workdir))
    return time.perf_counter() - start, cli, pool


def succeeded(op: Op, rc) -> bool:
    return rc == 0 or (op.command == "compare" and rc == EXIT_NOT_ISOMORPHIC)


def timed_loop(cli, pool, workdir: Path, seconds: float, tracer=None):
    """Whole rounds of the pool's calls, as many as end nearest to `seconds`:
    the loop stops once another round would overshoot by more than half a
    round."""
    argvs = [argv_of(op, workdir) for op in pool.ops]
    first: list[tuple | None] = [None] * len(argvs)
    changed = set()
    times, failed, rounds = [], 0, 0
    start = time.perf_counter_ns()
    limit = int(seconds * 1e9)
    while True:
        for i, (op, argv) in enumerate(zip(pool.ops, argvs)):
            if tracer is not None:
                tracer.op = len(times)
            ns, rc, out, err = call(cli, argv)
            times.append(ns)
            failed += not succeeded(op, rc)
            if first[i] is None:
                first[i] = (rc, out, err)
            elif first[i][:2] != (rc, out):
                changed.add(i)
        rounds += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed + elapsed // rounds // 2 >= limit:
            break
    wall_ns = time.perf_counter_ns() - start
    return times, failed, wall_ns, first, changed


def check_outputs(pool, first, changed) -> list[str]:
    """Check each distinct call's output once; repeats must be identical."""
    import checks  # sympy is loaded only after the timed loop

    errors = [f"{pool.ops[i].command} {pool.ops[i].paths}: output changed between rounds"
              for i in sorted(changed)]
    answered = []
    for op, (rc, out, err) in zip(pool.ops, first):
        if not succeeded(op, rc):
            if not (op.known_refusal and rc == EXIT_INPUT_ERROR
                    and err.startswith("error: TorsionTooLarge")):
                errors.append(f"{op.command} {op.paths}: failed with {rc}: {err.strip()}")
            continue
        rows = [pool.matrices[p] for p in op.paths]
        try:
            doc = json.loads(out)
            if op.command == "compute":
                errors += checks.check_compute(rows[0], doc)
            elif op.command == "verify":
                errors += checks.check_verify(rows[0], doc)
            elif op.command == "examples":
                errors += checks.check_examples(doc)
            else:
                errors += checks.check_compare(rows[0], rows[1], doc)
                answered.append((op, doc))
        except (ValueError, LookupError, TypeError) as exc:  # malformed output
            errors.append(f"{op.command} {op.paths}: unreadable output: {exc!r}")
    return errors + checks.check_verdicts(answered)


def end_to_end(setup_times, times, wall_ns, peak_rss_kb) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(times) / 1e6, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(times, n=10)[8] / 1e6, "unit": "ms"},
        "ops_per_s": {"value": len(times) / (wall_ns / 1e9), "unit": "op/s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def per_layer(tracer, attempted: int) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, stat in PER_LAYER:
        t = totals.get(name, {"calls": 0, "self_ns": 0, "max_size": 0})
        value = {"calls": t["calls"] / attempted,
                 "self_ms": t["self_ns"] / 1e6 / attempted}.get(stat, t["max_size"])
        metrics[f"{name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ckext" / "cli.py").is_file():
        print(f"error: no ckext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            took, cli, pool = set_up(args.workload, args.seed, workdir)
            setup_times.append(took)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            times, failed, wall_ns, first, changed = timed_loop(
                cli, pool, workdir, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_start = time.perf_counter()
        errors = check_outputs(pool, first, changed)
        print(f"{args.workload} seed {args.seed}: set-up {sum(setup_times):.1f} s, "
              f"{len(times) // len(pool.ops)} rounds of {len(pool.ops)} calls in "
              f"{wall_ns / 1e9:.1f} s, checks {time.perf_counter() - check_start:.1f} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed, attempted=len(times))
        metrics = per_layer(tracer, len(times))
    else:
        metrics = end_to_end(setup_times, times, wall_ns, peak_rss_kb)
    print(json.dumps({"correct": not errors, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
