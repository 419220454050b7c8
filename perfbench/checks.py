"""Checks of ckext's outputs against computations made outside ckext.

Each check returns a list of error strings, empty when the output is right.
Group structures, determinants and element orders come from sympy applied to
matrices the benchmark builds itself (``I - A``, ``I - Â``, ``I - Aᵀ``); the
compare verdicts are checked against properties every correct decision has
(a matrix and its permuted copy are isomorphic, the verdict is symmetric and
invariant under relabelling) and against ckext's brute-force oracle, which
shares no code with the marked search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from inputs import Rows, identity_minus

BRUTEFORCE_MAX_ORDER = 256
VERIFY_FLAGS = ("im0_identity", "toeplitz_m_independence", "hat_q_commutation", "all_passed")


def _dm(m) -> DomainMatrix:
    return DomainMatrix([[ZZ(x) for x in r] for r in m], (len(m), len(m[0])), ZZ)


def identity_minus_hat(rows: Rows) -> Rows:
    """I - Â for Â = A + R_1 - A R_1, where R_1 has the all-ones first row;
    (A R_1)[i][j] = A[i][0]."""
    return tuple(tuple(int(i == j) - (x + int(i == 0) - r[0]) for j, x in enumerate(r))
                 for i, r in enumerate(rows))


def transpose(rows: Rows) -> Rows:
    return tuple(zip(*rows))


@cache
def group_of(m) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of Z^N / m Z^N."""
    factors = [int(x) for x in invariant_factors(_dm(m))]
    return factors.count(0), tuple(sorted(x for x in factors if x > 1))


@cache
def det(m) -> int:
    return int(_dm(m).det())


@cache
def order_of_ones(m) -> int | None:
    """Least k > 0 with k * 1_N in m Z^N, or None if there is none.

    Nonsingular m: the rational solution x of m x = 1_N, and k is the least
    common denominator of x.  Singular m: [1_N] has finite order iff
    appending 1_N keeps the rank, and then the order is the ratio of the
    torsion orders of Z^N / m Z^N and Z^N / [m | 1_N] Z^(N+1).
    """
    n = len(m)
    if det(m):
        ones = DomainMatrix([[QQ(1)] for _ in range(n)], (n, 1), QQ)
        x = _dm(m).convert_to(QQ).lu_solve(ones)
        return math.lcm(*(int(QQ.denom(v)) for v in x.to_Matrix()))
    plain = [int(v) for v in invariant_factors(_dm(m))]
    joined = [int(v) for v in invariant_factors(_dm([r + (1,) for r in m]))]
    if joined.count(0) < plain.count(0):
        return None
    return math.prod(v for v in plain if v) // math.prod(v for v in joined if v)


def element_order(elem: dict, torsion) -> int | None:
    """Order of an element given by its canonical coordinates."""
    if any(elem["free"]):
        return None
    return math.lcm(1, *(d // math.gcd(d, c) for c, d in zip(elem["torsion"], torsion)))


def _group_errors(what: str, doc: dict, m) -> list[str]:
    got = (doc["free_rank"], tuple(doc["torsion"]))
    want = group_of(m)
    return [] if got == want else [f"{what}: group {got}, sympy gives {want}"]


def check_compute(rows: Rows, doc: dict) -> list[str]:
    errors = []
    ima, imh = identity_minus(rows), identity_minus_hat(rows)
    if tuple(map(tuple, doc["matrix"])) != rows:
        errors.append("compute: matrix echoed wrongly")
    errors += _group_errors("extw", doc["extw"], ima)
    errors += _group_errors("exts", doc["exts"], imh)
    d = det(ima)
    if doc["det_i_minus_a"] != d:
        errors.append(f"det(I-A) {doc['det_i_minus_a']}, sympy gives {d}")
    got = element_order(doc["extw"]["toeplitz_weak"], doc["extw"]["torsion"])
    want = order_of_ones(ima)
    if got != want:
        errors.append(f"order of [T]_w {got}, rational solve gives {want}")
    if d:
        plus_j = tuple(tuple(x + 1 for x in r) for r in ima)
        t_free = doc["exts"]["toeplitz_strong"]["free"]
        i_free = doc["exts"]["iota_one"]["free"]
        want_ratio = Fraction(-det(plus_j), d)
        if len(t_free) != 1 or len(i_free) != 1 or not i_free[0]:
            errors.append(f"free parts {t_free}, {i_free} are not of rank one")
        elif Fraction(t_free[0], i_free[0]) != want_ratio:
            errors.append(f"[T]_s / iota(1) = {Fraction(t_free[0], i_free[0])}, "
                          f"-det(I-A+J)/det(I-A) = {want_ratio}")
    return errors


def check_verify(rows: Rows, doc: dict) -> list[str]:
    errors = [f"verify: {k} is {doc[k]}" for k in VERIFY_FLAGS if doc[k] is not True]
    errors += [f"verify: exact_sequence.{k} is {v}"
               for k, v in doc["exact_sequence"].items() if v is not True]
    d = det(identity_minus(rows))
    if doc["det_i_minus_a"] != d:
        errors.append(f"det(I-A) {doc['det_i_minus_a']}, sympy gives {d}")
    if d and doc["kernel_sum_generator"] != 0:
        errors.append("kernel generator nonzero although I-A is invertible")
    return errors


def check_examples(doc: dict) -> list[str]:
    failed = [f"{r['name']} {r['check']}" for r in doc["results"] if r["passed"] is not True]
    if doc["all_passed"] is not True or failed or not doc["results"]:
        return [f"examples: failed {failed}"]
    return []


def check_compare(rows_a: Rows, rows_b: Rows, doc: dict) -> list[str]:
    errors = []
    for key, rows in (("a", rows_a), ("b", rows_b)):
        side = doc[key]
        if tuple(map(tuple, side["matrix"])) != rows:
            errors.append(f"compare: matrix {key} echoed wrongly")
        pair = side["transposed_weak_pair"]
        m = identity_minus(transpose(rows))
        errors += _group_errors(f"compare {key}", pair, m)
        got = element_order(pair["marker"], pair["torsion"])
        want = order_of_ones(m)
        if got != want:
            errors.append(f"compare {key}: marker order {got}, rational solve gives {want}")
    return errors


def check_verdicts(ops_docs) -> list[str]:
    """Relations between compare verdicts; ``ops_docs`` holds (op, doc) for
    every compare that gave an answer."""
    from ckext.markediso import marked_group, marked_iso_bruteforce

    errors = []
    groups: dict[str, set] = {}
    for op, doc in ops_docs:
        verdict = doc["isomorphic"]
        if op.permuted_copy and verdict is not True:
            errors.append(f"compare {op.paths}: a matrix and its permuted copy judged "
                          "not isomorphic")
        if op.group:
            groups.setdefault(op.group, set()).add(verdict)
        pa, pb = doc["a"]["transposed_weak_pair"], doc["b"]["transposed_weak_pair"]
        if pa["free_rank"] or pb["free_rank"]:
            continue
        if max(math.prod(pa["torsion"]), math.prod(pb["torsion"])) > BRUTEFORCE_MAX_ORDER:
            continue
        x = marked_group(0, pa["torsion"], [pa["marker"]["torsion"]])
        y = marked_group(0, pb["torsion"], [pb["marker"]["torsion"]])
        if marked_iso_bruteforce(x, y) != verdict:
            errors.append(f"compare {op.paths}: verdict {verdict} disagrees with brute force")
    errors += [f"compare group {g}: verdicts differ under swap or relabelling"
               for g, verdicts in groups.items() if len(verdicts) != 1]
    return errors
