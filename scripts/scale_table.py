#!/usr/bin/env python3
"""Print the README Scale table: invariants_report and verify on dense random,
singular and tied matrices.

A draw N:SEED is the first draw of tests/conftest.py::random_valid_rows with
random.Random(seed) at size N, sN:SEED is tests/conftest.py::singular_draw
(seed, N), whose I - A kills e_1 - e_2, and tN:SEED (tN:SEED:P) is
tests/conftest.py::tied_columns of the N:SEED draw with the column pairs
(1, 2) and (3, 4) (and so on, P pairs), whose I - A kills e_1 - e_2 and
e_3 - e_4.  Each case runs in its own process under a time limit (--limit,
in seconds); a case that hits it is printed with "timeout" in place of its
times.  Each row gives the best of three runs of invariants_report, the best
of three runs of the verifiers (cli.verification_document, each on the
report just made), both timed with time.perf_counter, the digits of
D = |det(I - A)|, the size k of the k x k residual that eliminating I - A on
+-1 pivots leaves, and where the weak group came from: "w" when
gcd(w, D) = 1 for w = 1^T adj(I - A), so the group is cyclic and read off w,
"mod D" when the Smith form of the residual modulo D gave it, and
"corank r" when I - A has rank N - r, so the group was read off the
saturated kernel bases of the residual and a Smith form of it modulo the
torsion order.

With --json PATH the rows are also written to PATH as one JSON object:
"rows" holds one object per printed row, with the times in seconds ("time_s"
and "verify_s", null and "timeout" true for a case that hit the limit), and
"host" names the Python, the machine and its CPU count.

    python3 scripts/scale_table.py                      # the README ladder
    python3 scripts/scale_table.py --draws 40:0 s50:1 t60:0 --limit 30
    python3 scripts/scale_table.py --json scale.json    # the ladder, also as JSON
"""

import argparse
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ckext import invariants_report, validate  # noqa: E402
from ckext.cli import verification_document  # noqa: E402
from ckext.exactmat import IntMatrix, _unit_reduction, adjugate_or_kernel  # noqa: E402
from conftest import random_valid_rows, singular_draw, tied_columns  # noqa: E402

LADDER = ("40:0", "50:0", "50:1", "50:2", "60:0", "80:0", "100:0",
          "s40:0", "s50:0", "s50:1", "s60:0", "s80:0", "s100:0",
          "t40:0", "t50:0", "t60:0", "t50:0:3")
KINDS = {"s": "singular", "t": "tied"}


def draw(spec: str) -> tuple[str, int, int, list]:
    """(kind, N, seed, rows) from N:SEED, sN:SEED, tN:SEED or tN:SEED:P."""
    kind = KINDS.get(spec[0], "random")
    n, seed, *pairs = map(int, spec.lstrip("st").split(":"))
    if kind == "singular":
        return kind, n, seed, singular_draw(seed, n)
    rows = random_valid_rows(random.Random(seed), n)
    if kind == "tied":
        rows = tied_columns(rows, [(2 * p, 2 * p + 1) for p in range(*pairs or [2])])
    return kind, n, seed, rows


def times(spec: str) -> tuple[float, float]:
    """The best of three report and verifier times of one draw, in s."""
    a = validate(draw(spec)[3])
    best = best_verify = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rep = invariants_report(a)
        mid = time.perf_counter()
        verification_document(rep)
        best = min(best, mid - start)
        best_verify = min(best_verify, time.perf_counter() - mid)
    return best, best_verify


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", nargs="+", default=LADDER, metavar="[s|t]N:SEED[:P]",
                        help="draws to time (default: the README ladder)")
    parser.add_argument("--limit", type=float, default=120.0,
                        help="time limit of one case in seconds (default 120)")
    parser.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
    parser.add_argument("--times", help=argparse.SUPPRESS)  # one case, in the child
    args = parser.parse_args(argv)
    if args.times:
        print(*times(args.times))
        return
    print("| N   | seed | draw     | time    | verify   | digits of D | k   | weak     |")
    print("|-----|------|----------|---------|----------|-------------|-----|----------|")
    records = []
    for spec in args.draws:
        kind, n, seed, rows = draw(spec)
        try:
            done = subprocess.run([sys.executable, __file__, "--times", spec],
                                  capture_output=True, text=True, timeout=args.limit)
        except subprocess.TimeoutExpired:
            report = verify = "timeout"
            best = best_verify = None
        else:
            if done.returncode:
                sys.exit(done.stderr)
            best, best_verify = map(float, done.stdout.split())
            report, verify = f"{best:.2f} s", f"{best_verify * 1e3:.1f} ms"
        red = _unit_reduction(IntMatrix.identity(n) - IntMatrix.from_rows(rows))
        det, u, (_, _, kernel) = adjugate_or_kernel(red.residual.transpose(),
                                                    [red.sigma[j] for j in red.cols])
        digits = len(str(abs(det))) if det else "singular"
        weak = ("w" if math.gcd(det, *u) == 1 else "mod D") if det else f"corank {len(kernel)}"
        print(f"| {n:<3} | {seed:<4} | {kind:<8} | {report:<7} | {verify:<8} | {digits:<11} "
              f"| {red.residual.rows:<3} | {weak:<8} |", flush=True)
        records.append({"draw": spec, "n": n, "seed": seed, "kind": kind, "time_s": best,
                        "verify_s": best_verify, "timeout": best is None, "digits_of_d": digits,
                        "k": red.residual.rows, "weak": weak})
    if args.json:
        host = {"python": platform.python_version(), "machine": platform.machine(),
                "cpus": os.cpu_count()}
        with open(args.json, "w") as fh:
            json.dump({"host": host, "limit_s": args.limit, "rows": records}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
