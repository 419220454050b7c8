"""Seeded inputs for the three workloads.

Every matrix is drawn here, from the ``random.Random`` the caller seeds, and
is validated by the benchmark's own check (irreducible, not a permutation,
size > 1), so the inputs do not depend on the program under test.  Each pool
is stratified: a fixed number of draws per matrix size (or per torsion band),
so that two seeds give pools of the same shape and their figures differ only
by the draws themselves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Rows = tuple[tuple[int, ...], ...]

# (N, draws per round).  Each percentile that is reported falls inside one
# large stratum (the median inside N = 20, the 90th percentile among N = 28
# and the tail), so it moves little from seed to seed.
DENSE_LADDER = ((12, 16), (16, 16), (20, 48), (24, 24), (28, 16))
# The heavy tail is a fixed set: the first draw of random.Random(k) at N = 32
# with the test suite's sampler.  They take 0.4 s to 2.4 s each, because the
# Smith transforms grow to thousands of bits.  Seeded draws at N = 32 are not
# used: about one in twenty takes more than 10 s and some run for minutes,
# which no fixed run length can hold.
DENSE_TAIL_SIZE = 32
DENSE_TAIL_SEEDS = tuple(range(8))
# Sparse draws (about three ones per row) keep entries small; verify costs
# grow with N^3 through hnf_columns and kernel_basis.
# The median falls inside N = 18, the 90th percentile inside N = 24.
SPARSE_LADDER = ((16, 36), (18, 48), (24, 14), (32, 2))
# Torsion bands of |T| for the classify draws, with draws per band.  Each
# draw is compared with its permuted copy in both orders.  A compare costs
# about |T|^2, so the top of the range is split: the 90th percentile then
# falls among draws of similar cost.
CLASSIFY_BANDS = ((64, 127, 20), (128, 255, 20), (256, 383, 20), (384, 512, 8))
CLASSIFY_SIZES = (10, 11, 12, 13, 14)
SAME_GROUP_PAIRS = 8
# Raw draws made for every classify pool, filled or not, so that set-up costs
# about the same for every seed.  About 1 in 170 raw draws lands in 256..383
# and 1 in 340 in 384..512, so 6000 fill every band on almost every seed;
# the rare seed that needs more keeps drawing.
CLASSIFY_DRAWS = 6000
# Matrices drawn with random.Random(k) at N = 20 (entries 0 or 1 with
# probability 1/2, rejection-sampled), compared against a permuted copy.
# Their |T| exceeds the marked search's bound of 512, so compare refuses them
# although the answer is "isomorphic" by construction.  They do not depend on
# the seed, so they fail in every run, in the same share of every round.
REFUSED_SIZE = 20
REFUSED_SEEDS = (0, 1, 2, 3)
MAX_DRAWS = 100_000


@dataclass(frozen=True)
class Op:
    """One ``ckext`` invocation; ``paths`` are matrix names in the pool."""

    command: str
    paths: tuple[str, ...] = ()
    group: str = ""              # compare ops whose verdicts must agree
    permuted_copy: bool = False  # compare of a matrix against its permuted copy
    known_refusal: bool = False  # fixed input that compare refuses today


@dataclass(frozen=True)
class Pool:
    matrices: dict[str, Rows]
    ops: tuple[Op, ...]          # one round, in timed order
    warmup: Op


def is_valid(rows: Rows) -> bool:
    """Irreducible (strongly connected digraph), not a permutation, N > 1."""
    n = len(rows)
    if n <= 1:
        return False
    if all(sum(r) == 1 for r in rows) and all(sum(r[j] for r in rows) == 1 for j in range(n)):
        return False
    for forward in (True, False):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if (rows[i][j] if forward else rows[j][i]) and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


def _rejection_sample(sample) -> Rows:
    for _ in range(MAX_DRAWS):
        rows = sample()
        if is_valid(rows):
            return rows
    raise RuntimeError(f"no valid matrix in {MAX_DRAWS} draws")


def dense_rows(rng: random.Random, n: int) -> Rows:
    """A 0-1 matrix with entries 1 with probability 1/2, not yet validated."""
    bits = format(rng.getrandbits(n * n), f"0{n * n}b")
    return tuple(tuple(map(int, bits[i:i + n])) for i in range(0, n * n, n))


def draw_dense(rng: random.Random, n: int) -> Rows:
    """A valid matrix with entries 1 with probability 1/2."""
    return _rejection_sample(lambda: dense_rows(rng, n))


def draw_sparse(rng: random.Random, n: int) -> Rows:
    """A valid matrix with entries 1 with probability 3/N."""
    p = 3 / n
    return _rejection_sample(
        lambda: tuple(tuple([int(rng.random() < p) for _ in range(n)]) for _ in range(n)))


def draw_half(rng: random.Random, n: int) -> Rows:
    """The test suite's sampler: each entry rng.randint(0, 1)."""
    return _rejection_sample(
        lambda: tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)))


def permuted(rows: Rows, rng: random.Random) -> Rows:
    """P A P^T for a random permutation P: the same algebra, relabelled."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(len(rows)))
                 for i in range(len(rows)))


def identity_minus(rows: Rows) -> Rows:
    return tuple(tuple(int(i == j) - x for j, x in enumerate(r)) for i, r in enumerate(rows))


def bareiss_det(m: Rows) -> int:
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row = a[k][k], a[k]
        for i in range(k + 1, n):
            lead = a[i][k]
            a[i] = [0] * (k + 1) + [(x * pivot - lead * y) // prev
                                    for x, y in zip(a[i][k + 1:], row[k + 1:])]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def torsion_factors(m: Rows, det: int) -> tuple[int, ...]:
    """Invariant factors > 1 of a nonsingular integer matrix, ascending.

    Smith form over Z/p^(e+1) for each prime power p^e exactly dividing det:
    entries stay below p^(e+1), and the p-parts of the invariant factors are
    the powers of p met as pivots.  A prime dividing det once contributes a
    single factor p.
    """
    n = len(m)
    parts: list[list[int]] = []
    for p, e in _prime_powers(abs(det)):
        if e == 1:
            parts.append([p])
            continue
        q = p ** (e + 1)
        a = [[x % q for x in r] for r in m]
        vals = []
        for t in range(n):
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j]:
                        v, x = 0, a[i][j]
                        while x % p == 0:
                            x //= p
                            v += 1
                        if best is None or v < best[0]:
                            best = (v, i, j)
            if best is None:
                break
            v, i, j = best
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            pv = p ** v
            unit_inv = pow(a[t][t] // pv, -1, q)
            a[t] = [x * unit_inv % q for x in a[t]]
            for i in range(t + 1, n):
                c = a[i][t] // pv
                if c:
                    a[i] = [(x - c * y) % q for x, y in zip(a[i], a[t])]
            if v:
                vals.append(p ** v)
        parts.append(sorted(vals, reverse=True))
    width = max((len(v) for v in parts), default=0)
    factors = [math.prod(v[i] for v in parts if i < len(v)) for i in range(width)]
    return tuple(sorted(factors))


def _name(n: int, k: int) -> str:
    return f"n{n:02d}_{k:02d}"


def dense_pool(rng: random.Random) -> Pool:
    matrices, ops = {}, []
    for n, count in DENSE_LADDER:
        for k in range(count):
            name = _name(n, k)
            matrices[name] = draw_dense(rng, n)
            ops.append(Op("compute", (name,)))
    for s in DENSE_TAIL_SEEDS:
        name = f"t{DENSE_TAIL_SIZE}_{s}"
        matrices[name] = draw_half(random.Random(s), DENSE_TAIL_SIZE)
        ops.append(Op("compute", (name,)))
    warmup = ops[0]
    rng.shuffle(ops)
    return Pool(matrices, tuple(ops), warmup)


def sparse_pool(rng: random.Random) -> Pool:
    matrices, ops = {}, []
    for n, count in SPARSE_LADDER:
        for k in range(count):
            name = _name(n, k)
            matrices[name] = draw_sparse(rng, n)
            ops.append(Op("verify", (name,)))
    warmup = ops[0]
    rng.shuffle(ops)
    return Pool(matrices, tuple(ops), warmup)


def classify_pool(rng: random.Random) -> Pool:
    """Permuted-copy pairs per torsion band, same-group quartets, the fixed
    refused pairs and one ``examples`` run."""
    matrices: dict[str, Rows] = {}
    ops: list[Op] = []

    def add(name: str, rows: Rows) -> None:
        if name not in matrices:
            matrices[name] = rows
            matrices[name + "p"] = permuted(rows, rng)

    band_left = [count for _, _, count in CLASSIFY_BANDS]
    unpaired: dict[tuple[int, ...], tuple[str, Rows]] = {}
    pairs = 0
    for k in range(MAX_DRAWS):
        if k >= CLASSIFY_DRAWS and not any(band_left) and pairs == SAME_GROUP_PAIRS:
            break
        rows = dense_rows(rng, rng.choice(CLASSIFY_SIZES))
        m = identity_minus(rows)
        order = abs(bareiss_det(m))
        band = next((b for b, (lo, hi, _) in enumerate(CLASSIFY_BANDS) if lo <= order <= hi),
                    None)
        if band is None or not is_valid(rows):
            continue
        torsion = torsion_factors(m, order)
        if len(torsion) < 2:
            continue
        name = f"c{k:05d}"
        if band_left[band]:
            band_left[band] -= 1
            add(name, rows)
            ops += [Op("compare", (name, name + "p"), permuted_copy=True),
                    Op("compare", (name + "p", name), permuted_copy=True)]
        if pairs == SAME_GROUP_PAIRS:
            continue
        if torsion not in unpaired:
            unpaired[torsion] = (name, rows)
            continue
        other, other_rows = unpaired.pop(torsion)
        add(other, other_rows)
        add(name, rows)
        pairs += 1
        tag = f"g{pairs}"
        ops += [Op("compare", (other, name), group=tag),
                Op("compare", (name, other), group=tag),
                Op("compare", (other + "p", name), group=tag),
                Op("compare", (other, name + "p"), group=tag)]
    else:
        raise RuntimeError(f"classify pool incomplete after {MAX_DRAWS} draws")
    for s in REFUSED_SEEDS:
        fixed = random.Random(s)
        name = f"r{REFUSED_SIZE}_{s}"
        matrices[name] = draw_half(fixed, REFUSED_SIZE)
        matrices[name + "p"] = permuted(matrices[name], fixed)
        ops.append(Op("compare", (name, name + "p"), permuted_copy=True, known_refusal=True))
    warmup = Op("examples")
    ops.append(warmup)
    rng.shuffle(ops)
    return Pool(matrices, tuple(ops), warmup)


POOLS = {"dense-compute": dense_pool, "sparse-verify": sparse_pool, "classify": classify_pool}
