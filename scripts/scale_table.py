#!/usr/bin/env python3
"""Print the README Scale table: invariants_report and verify on dense random
matrices.

Each row is the first draw of tests/conftest.py::random_valid_rows with
random.Random(seed) at size N: the best of three runs of invariants_report,
the best of three runs of the verifiers (cli.verification_document, each on
the report just made), both timed with time.perf_counter, the digits of
D = |det(I - A)|, and where the weak group came from: "w" when
gcd(w, D) = 1 for w = 1^T adj(I - A), so the group is cyclic and read off w,
"mod D" when the Smith form modulo D gave it, and "snf" for a singular I - A.

    python3 scripts/scale_table.py                      # the README ladder
    python3 scripts/scale_table.py --draws 40:0 50:1
"""

import argparse
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ckext import invariants_report, validate  # noqa: E402
from ckext.cli import verification_document  # noqa: E402
from ckext.exactmat import adjugate_solve  # noqa: E402
from conftest import random_valid_rows  # noqa: E402

LADDER = ("40:0", "50:0", "50:1", "50:2", "60:0", "80:0", "100:0")


def draw(spec: str) -> tuple[int, int]:
    n, seed = spec.split(":")
    return int(n), int(seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", nargs="+", type=draw, default=[draw(s) for s in LADDER],
                        metavar="N:SEED", help="draws to time (default: the README ladder)")
    args = parser.parse_args(argv)
    print("| N   | seed | time    | verify   | digits of D | weak  |")
    print("|-----|------|---------|----------|-------------|-------|")
    for n, seed in args.draws:
        a = validate(random_valid_rows(random.Random(seed), n))
        best = best_verify = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rep = invariants_report(a)
            mid = time.perf_counter()
            verification_document(rep)
            best = min(best, mid - start)
            best_verify = min(best_verify, time.perf_counter() - mid)
        digits = len(str(abs(rep.det_i_minus_a))) if rep.det_i_minus_a else "singular"
        verify = f"{best_verify * 1e3:.1f} ms"
        print(f"| {n:<3} | {seed:<4} | {best:.2f} s  | {verify:<8} | {digits:<11} "
              f"| {weak_source(rep):<5} |")


def weak_source(rep) -> str:
    """Which path of fgab.finite_cokernel gave the report's weak group."""
    det = rep.det_i_minus_a
    if not det:
        return "snf"
    _, w = adjugate_solve(rep.i_minus_a.transpose(), (1,) * rep.matrix.n)
    return "w" if math.gcd(det, *w) == 1 else "mod D"


if __name__ == "__main__":
    main()
