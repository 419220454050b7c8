#!/usr/bin/env python3
"""Print the README Scale table: invariants_report and verify on dense random
and singular matrices.

A draw N:SEED is the first draw of tests/conftest.py::random_valid_rows with
random.Random(seed) at size N, and sN:SEED is tests/conftest.py::singular_draw
(seed, N), whose I - A kills e_1 - e_2.  Each row gives the best of three runs
of invariants_report, the best of three runs of the verifiers
(cli.verification_document, each on the report just made), both timed with
time.perf_counter, the digits of D = |det(I - A)|, the size k of the k x k
residual that eliminating I - A on +-1 pivots leaves, and where the weak
group came from: "w" when gcd(w, D) = 1 for w = 1^T adj(I - A), so the group
is cyclic and read off w, "mod D" when the Smith form of the residual modulo
D gave it, "rank N-1" when I - A has rank N - 1, so the group was read off
its kernel vectors and a Smith form of the residual modulo its torsion
order, and "snf" for a lower rank, where the residual's exact Smith form
gave it.

    python3 scripts/scale_table.py                      # the README ladder
    python3 scripts/scale_table.py --draws 40:0 s50:1
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
from ckext.exactmat import _unit_reduction, adjugate_solve  # noqa: E402
from conftest import random_valid_rows, singular_draw  # noqa: E402

LADDER = ("40:0", "50:0", "50:1", "50:2", "60:0", "80:0", "100:0",
          "s40:0", "s50:0", "s50:1", "s60:0", "s80:0", "s100:0")


def draw(spec: str) -> tuple[bool, int, int]:
    """(singular, N, seed) from N:SEED or sN:SEED."""
    singular = spec.startswith("s")
    n, seed = spec.removeprefix("s").split(":")
    return singular, int(n), int(seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", nargs="+", type=draw, default=[draw(s) for s in LADDER],
                        metavar="[s]N:SEED", help="draws to time (default: the README ladder)")
    args = parser.parse_args(argv)
    print("| N   | seed | draw     | time    | verify   | digits of D | k   | weak     |")
    print("|-----|------|----------|---------|----------|-------------|-----|----------|")
    for singular, n, seed in args.draws:
        rows = singular_draw(seed, n) if singular else random_valid_rows(random.Random(seed), n)
        a = validate(rows)
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
        kind = "singular" if singular else "random"
        red = _unit_reduction(rep.i_minus_a)
        print(f"| {n:<3} | {seed:<4} | {kind:<8} | {best:.2f} s  | {verify:<8} | {digits:<11} "
              f"| {red.residual.rows:<3} | {weak_source(rep, red):<8} |")


def weak_source(rep, red) -> str:
    """Which path of invariants._weak_group gave the report's weak group:
    gcd(w, D) is gcd(u, D) for the row u with u M' = det(I - A) sigma' on the
    residual M', since w is u carried back and its other entries are
    multiples of D."""
    det = rep.det_i_minus_a
    if not det:
        return "snf" if rep.kernel_vector is None else "rank N-1"
    _, u = adjugate_solve(red.residual.transpose(), [red.sigma[j] for j in red.cols])
    return "w" if math.gcd(det, *u) == 1 else "mod D"


if __name__ == "__main__":
    main()
