"""Metamorphic tests: graph moves whose effect on the Cuntz-Krieger algebra
is known, checked against the classification criterion.

An out-split keeps O_A up to isomorphism (Bates-Pask), so ck_isomorphic must
hold.  An in-split keeps O_A only up to stable isomorphism: the group
Z^N/(I - A)Z^N stays, the class of the unit may move, and the verdict is
checked against the brute-force oracle.  The Cuntz splice of O_2 flips the
sign of det(I - A) and keeps the algebra, as every unital Kirchberg algebra
with zero K-theory is O_2.  Both splits keep det(I - A), as
det(I - DE) = det(I - ED).
"""

import math
import random

from ckext import validate
from ckext.invariants import extw
from ckext.markediso import ck_isomorphic, marked_iso_bruteforce, transposed_weak_pair
from conftest import (cuntz_splice, det_i_minus_a, in_split, out_split, random_valid_rows,
                      transposed)


def _random_out_split(rng, rows):
    """An out-split of a random vertex with two or more out-edges, along a
    random cut of its out-edges into two nonempty parts."""
    v = rng.choice([i for i, row in enumerate(rows) if sum(row) >= 2])
    ones = [j for j, x in enumerate(rows[v]) if x]
    rng.shuffle(ones)
    return out_split(rows, v, set(ones[:rng.randint(1, len(ones) - 1)]))


def _random_in_split(rng, rows):
    return transposed(_random_out_split(rng, transposed(rows)))


def test_out_splits_are_isomorphic():
    rng = random.Random(51)
    cases = 0
    for n in range(3, 9):
        for _ in range(20):
            rows = random_valid_rows(rng, n)
            a, b = validate(rows), validate(_random_out_split(rng, rows))
            assert b.n == n + 1
            assert det_i_minus_a(a) == det_i_minus_a(b), rows
            assert ck_isomorphic(a, b), rows
            cases += 1
    assert cases == 120


def test_out_split_chain_from_50_to_100_is_isomorphic():
    rows = random_valid_rows(random.Random(0), 50)
    start = validate(rows)
    rng = random.Random(0)
    while len(rows) < 100:
        rows = _random_out_split(rng, rows)
    end = validate(rows)
    assert det_i_minus_a(start) == det_i_minus_a(end)
    assert ck_isomorphic(start, end) and ck_isomorphic(end, start)


def test_in_splits_keep_the_weak_group_and_agree_with_the_oracle():
    rng = random.Random(52)
    verdicts, checked = [], 0
    for n in range(3, 9):
        for _ in range(20):
            rows = random_valid_rows(rng, n)
            a, b = validate(rows), validate(_random_in_split(rng, rows))
            ga, gb = extw(a), extw(b)
            assert (ga.free_rank, ga.torsion) == (gb.free_rank, gb.torsion), rows
            assert det_i_minus_a(a) == det_i_minus_a(b), rows
            verdict = ck_isomorphic(a, b)
            x, y = transposed_weak_pair(a), transposed_weak_pair(b)
            if x.group.free_rank == 0 and math.prod(x.group.torsion) <= 256:
                assert verdict == marked_iso_bruteforce(x, y), rows
                checked += 1
            verdicts.append(verdict)
    assert checked >= 90
    assert 30 <= sum(verdicts) <= len(verdicts) - 30


def test_o2_and_its_cuntz_splice_are_isomorphic():
    o2 = validate([[1, 1], [1, 1]])
    spliced = validate(cuntz_splice(o2.entries, 0))
    assert (det_i_minus_a(o2), det_i_minus_a(spliced)) == (-1, 1)
    assert extw(spliced).is_trivial()
    assert ck_isomorphic(o2, spliced)
