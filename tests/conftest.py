import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ckext import validate
from ckext.corpus import CORPUS
from ckext.exactmat import determinant
from ckext.invariants import ValidationError, _identity_minus

# One "ACCEPTANCE NN [PASS|FAIL] ..." line per acceptance criterion, collected
# while the suite runs and printed as a section of the end-of-run summary, so
# the lines show without -s and never split a test's own progress line.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_python(script: str, *argv: str, input: str | None = None):
    """Run ``python -c script argv...`` with src/ on PYTHONPATH and a 60 s
    timeout, so that a hang fails the calling test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], input=input,
                          capture_output=True, text=True, timeout=60, env=env)


def random_valid_rows(rng: random.Random, n: int):
    """Rejection-sample an irreducible non-permutation 0-1 matrix."""
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        try:
            validate(rows)
        except ValidationError:
            continue
        return rows


def singular_draw(seed: int, n: int):
    """random_valid_rows(random.Random(seed), n) with column 2 set equal to
    column 1 below row 2 and the top-left 2 x 2 block set to the identity
    (1-based), so that (I - A)(e_1 - e_2) = 0."""
    rows = random_valid_rows(random.Random(seed), n)
    for row in rows[2:]:
        row[1] = row[0]
    rows[0][:2], rows[1][:2] = [1, 0], [0, 1]
    return rows


def tied_columns(rows, pairs):
    """rows with singular_draw's tweak applied to each column pair (p, q):
    column q set equal to column p off rows p and q, and the 2 x 2 block on
    p and q set to the identity, so that (I - A)(e_p - e_q) = 0."""
    rows = [list(r) for r in rows]
    for u, v in pairs:
        for i, row in enumerate(rows):
            if i not in (u, v):
                row[v] = row[u]
        rows[u][u], rows[u][v], rows[v][u], rows[v][v] = 1, 0, 0, 1
    return rows


def out_split(rows, v, part):
    """The out-split of vertex v of the graph with adjacency matrix rows: its
    out-edges to the vertices in part move to a new last vertex v', the rest
    stay at v, and every edge into v is doubled to end at v as well as at v'.
    part and its complement in row v must both hold an edge."""
    split = [[x if j in part else 0 for j, x in enumerate(rows[v])],
             [x if j not in part else 0 for j, x in enumerate(rows[v])]]
    if not any(split[0]) or not any(split[1]):
        raise ValueError("an out-split needs out-edges on both sides")
    kept = [split[1] if i == v else list(row) for i, row in enumerate(rows)] + [split[0]]
    return [row + [row[v]] for row in kept]


def in_split(rows, v, part):
    """The in-split of vertex v: the out-split of the transposed graph,
    transposed back, so that the in-edges from part move to the new vertex."""
    return transposed(out_split(transposed(rows), v, part))


def transposed(rows):
    return [list(col) for col in zip(*rows)]


def cuntz_splice(rows, v):
    """The Cuntz splice at vertex v: two new vertices u, w, each with a loop,
    and the edges v -> u, u -> v, u -> w and w -> u.  It flips the sign of
    det(I - A) and keeps the group Z^N/(I - A)Z^N."""
    n = len(rows)
    u, w = n, n + 1
    out = [list(row) + [0, 0] for row in rows] + [[0] * (n + 2) for _ in range(2)]
    for i, j in ((v, u), (u, v), (u, u), (u, w), (w, u), (w, w)):
        out[i][j] = 1
    return out


def det_i_minus_a(a) -> int:
    """det(I - A) by the Bareiss determinant of the N x N I - A."""
    return determinant(_identity_minus(a))


def _partitions(n):
    def gen(n, largest):
        if n == 0:
            yield ()
            return
        for p in range(min(n, largest), 0, -1):
            for rest in gen(n - p, p):
                yield (p,) + rest
    return list(gen(n, n))


def abelian_group_types(max_order):
    """Invariant-factor chains of every abelian group of order <= max_order."""
    types = [()]
    for n in range(2, max_order + 1):
        factorisation = {}
        m = n
        d = 2
        while d * d <= m:
            while m % d == 0:
                factorisation[d] = factorisation.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            factorisation[m] = factorisation.get(m, 0) + 1
        per_prime = [[(p, part) for part in _partitions(e)]
                     for p, e in sorted(factorisation.items())]
        for combo in itertools.product(*per_prime):
            depth = max(len(part) for _, part in combo)
            ds = []
            for i in range(depth):
                ds.append(math.prod(p ** part[i] for p, part in combo
                                    if i < len(part)))
            types.append(tuple(sorted(ds)))
    return types


def random_unimodular_rows(rng: random.Random, n: int, steps: int = 12):
    """Product of random elementary row operations on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


@pytest.fixture(scope="session")
def corpus_matrices():
    return [(entry.name, validate(entry.rows)) for entry in CORPUS]
