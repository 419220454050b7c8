import itertools
import math
import random

import pytest

from ckext import cli, markediso
from ckext.corpus import A5, A6, FIBONACCI, cuntz_rows
from ckext.exactmat import IntMatrix
from ckext.fgab import GroupElement, certified_group
from ckext.invariants import validate
from ckext.markediso import (
    MarkedGroup,
    MarkerCountMismatchError,
    NotFiniteError,
    TooLargeError,
    TorsionTooLargeError,
    _act,
    _generators,
    _orbit_walk,
    _quotient,
    _unit_group_generators,
    ck_isomorphic,
    marked_group,
    marked_iso_bruteforce,
    marked_isomorphic,
)
from conftest import abelian_group_types


# --- contract examples ---------------------------------------------------

def test_marked_group_rejects_non_integral_descriptors():
    for torsion, markers in (((4.9,), ((1,),)), ((4,), ((1.5,),)), ((4.0,), ((1,),))):
        with pytest.raises(TypeError):
            marked_group(0, torsion, markers)
    x = marked_group(0, (4,), ((1,),))
    assert x == marked_group(0, [4], [[True]])
    assert x.group.torsion == (4,) and x.markers[0].torsion_coords == (1,)
    assert marked_group(1, (2,), ((False, 3),)).markers[0].torsion_coords == (1,)


def test_marked_group_keeps_its_coordinates():
    """The descriptor's coordinates are the group's own: a marked_group that
    went through a generic cokernel of its presentation would renumber them
    (here to (0, 3) and (2, 3))."""
    x = marked_group(1, (4, 8), [(0, 3, 5), (2, 1, 1)])
    assert [(m.free_coords, m.torsion_coords) for m in x.markers] == \
        [((0,), (3, 5)), ((2,), (1, 1))]
    assert (x.group.free_rank, x.group.torsion) == (1, (4, 8))
    assert x.group.factors == (4, 8, 0)
    assert all(x.group.class_of(x.group.representative(m)) == m for m in x.markers)
    assert marked_group(0, [], [()]).group.is_trivial()


@pytest.mark.parametrize("torsion", [(2, 3), (6, 4), (1, 2), (0,), (-2,)])
def test_marked_group_rejects_a_torsion_list_that_is_not_a_chain(torsion):
    with pytest.raises(ValueError):
        marked_group(0, torsion, [])


def test_a_group_whose_torsion_is_not_a_chain_is_refused():
    """Z/2 + Z/3 is Z/6, and the class of (1, 1) generates it, so it is
    isomorphic to Z/6 marked by 1.  Taken with the factors (2, 3) as given,
    marked_isomorphic would compare the torsion lists (2, 3) and (6,) and
    answer "not isomorphic"; the group is refused when it is built."""
    eye = IntMatrix.identity(2)
    with pytest.raises(ValueError, match="divisibility chain"):
        g = certified_group(IntMatrix.from_rows([[2, 0], [0, 3]]), eye, eye, (2, 3))
        marked_isomorphic(MarkedGroup(g, (g.class_of((1, 1)),)),
                          marked_group(0, (6,), [(1,)]))


def test_z2_marked_points_differ():
    assert not marked_isomorphic(marked_group(0, (2,), ((1,),)),
                                 marked_group(0, (2,), ((0,),)))


def test_z3_units_act():
    assert marked_isomorphic(marked_group(0, (3,), ((1,),)),
                             marked_group(0, (3,), ((2,),)))


def test_free_pair_sign_orbit():
    a = marked_group(1, (), ((4,), (3,)))
    assert marked_isomorphic(a, marked_group(1, (), ((-4,), (-3,))))
    assert not marked_isomorphic(a, marked_group(1, (), ((4,), (-3,))))


def test_bruteforce_klein_transitivity():
    assert marked_iso_bruteforce(marked_group(0, (2, 2), ((1, 0),)),
                                 marked_group(0, (2, 2), ((1, 1),)))


def test_bruteforce_z4_order_obstruction():
    assert not marked_iso_bruteforce(marked_group(0, (4,), ((2,),)),
                                     marked_group(0, (4,), ((1,),)))


def test_descriptor_mismatch_is_false():
    assert not marked_isomorphic(marked_group(0, (4,), ((1,),)),
                                 marked_group(0, (2, 2), ((1, 0),)))
    assert not marked_isomorphic(marked_group(1, (), ((0,),)),
                                 marked_group(0, (), ((),)))


def test_zero_markers_reduce_to_descriptor_equality():
    assert marked_isomorphic(marked_group(1, (2,), ()), marked_group(1, (2,), ()))
    assert not marked_isomorphic(marked_group(1, (2,), ()), marked_group(1, (4,), ()))
    big = marked_group(0, (1024,), ())
    assert marked_isomorphic(big, big)


# --- errors --------------------------------------------------------------

def test_marker_count_mismatch_raises():
    with pytest.raises(MarkerCountMismatchError):
        marked_isomorphic(marked_group(0, (2,), ((1,),)), marked_group(0, (2,), ()))
    with pytest.raises(MarkerCountMismatchError):
        marked_iso_bruteforce(marked_group(0, (2,), ((1,),)), marked_group(0, (2,), ()))


def _refuse_walk(*args):
    raise AssertionError("one marker reached the orbit walk")


def test_torsion_bound_enforced(monkeypatch):
    """The bound limits the orbit walk, which only two or more markers take;
    the refusal reports what it saw.  A pair that the per-marker filter
    separates is answered above the bound, and so is one marker with a
    nonzero free part, as the walk answers it with a larger bound."""
    pair = marked_group(0, (1024,), ((1,), (2,)))
    with pytest.raises(TorsionTooLargeError,
                       match=r"\|T\| = 1024 \(invariant factors \[1024\]\) with k = 2 .* 512"):
        marked_isomorphic(pair, pair)
    assert not marked_isomorphic(pair, marked_group(0, (1024,), ((2,), (1,))))
    free = [(marked_group(1, (1024,), (a,)), marked_group(1, (1024,), (b,)))
            for a, b in (((1, 1), (-1, 0)), ((2, 1), (2, 3)), ((2, 1), (2, 0)))]
    verdicts = [marked_isomorphic(x, y) for x, y in free]
    monkeypatch.setattr(markediso, "DEFAULT_TORSION_BOUND", 2048)
    assert marked_isomorphic(pair, pair)
    assert verdicts == [_orbit_walk(x, y) for x, y in free] == [True, True, False]


def _refuse_oracle_helper(*args):
    raise AssertionError("the orbit walk used the oracle's addition table")


def test_walk_needs_no_addition_table(monkeypatch, capsys):
    """The |T|^2 addition table and element indexing belong to the
    brute-force oracle: two markers at |T| = 512 and every example are
    decided without them."""
    monkeypatch.setattr(markediso, "_addition_table", _refuse_oracle_helper)
    monkeypatch.setattr(markediso, "_encode", _refuse_oracle_helper)
    x = marked_group(1, (8, 64), ((2, 3, 17), (-1, 4, 40)))
    assert marked_isomorphic(x, x)
    assert not marked_isomorphic(x, marked_group(1, (8, 64), ((2, 3, 17), (-3, 4, 40))))
    assert cli.main(["examples"]) == 0
    capsys.readouterr()


def test_one_marker_with_zero_free_part_needs_no_bound(monkeypatch):
    monkeypatch.setattr(markediso, "_orbit_walk", _refuse_walk)
    big = marked_group(0, (1024,), ((1,),))
    assert marked_isomorphic(big, big)
    assert marked_isomorphic(big, marked_group(0, (1024,), ((3,),)))
    assert not marked_isomorphic(big, marked_group(0, (1024,), ((2,),)))
    mixed = marked_group(1, (1024,), ((0, 6),))
    assert marked_isomorphic(mixed, marked_group(1, (1024,), ((0, 10),)))
    assert not marked_isomorphic(mixed, marked_group(1, (1024,), ((0, 4),)))


def _automorphisms(ds):
    """Every automorphism of Z/d_1 + Z/d_2 (d_1 | d_2), as the images of the
    two generators: pairs that generate the whole group (order d_2 is implied
    by the exponent, and d_1 u = 0 makes the map well defined)."""
    elems = list(itertools.product(range(ds[0]), range(ds[1])))
    for u in elems:
        if any(ds[0] * c % d for c, d in zip(u, ds)):
            continue
        for v in elems:
            span = {tuple((i * a + j * b) % d for a, b, d in zip(u, v, ds))
                    for i in range(ds[0]) for j in range(ds[1])}
            if len(span) == ds[0] * ds[1]:
                yield u, v


@pytest.mark.parametrize("c", [2, 3])
def test_one_free_marker_is_not_decided_in_t_mod_ct(c):
    """In Z + Z/c + Z/c^2 the markers (c, 1, 0) and (c, 0, 1) differ, although
    their torsion images in T/cT = Z/c + Z/c are swapped by an automorphism of
    T/cT: that swap lifts to no automorphism of T, so Aut(T) does not map onto
    Aut(T/cT)."""
    ds = (c, c * c)
    x, y = marked_group(1, ds, ((c, 1, 0),)), marked_group(1, ds, ((c, 0, 1),))
    assert not marked_isomorphic(x, y)
    assert marked_isomorphic(x, x) and marked_isomorphic(y, y)
    # Every automorphism of Z + T sends (c, t) to (+-c, phi(t) + c s), so the
    # markers agree iff some phi in Aut(T) moves (1, 0) into (0, 1) + cT.
    coset = {(0, 1 + c * j) for j in range(c)}
    auts = list(_automorphisms(ds))
    assert not any(u in coset for u, _ in auts)
    # The swap of T/cT needs phi(e_1) = e_2 mod cT, but c phi(e_1) = 0 forces
    # phi(e_1) = (a, c b), which is (a, 0) mod cT: no phi induces the swap.
    assert {(u[0] % c, u[1] % c) for u, _ in auts} <= {(i, 0) for i in range(1, c)}


def test_orbit_bound_refusal_reports_states(monkeypatch):
    monkeypatch.setattr(markediso, "_ORBIT_STATE_BOUND", 2)
    x = marked_group(0, (2, 2, 2), ((1, 0, 0), (0, 1, 0)))
    y = marked_group(0, (2, 2, 2), ((1, 0, 0), (1, 0, 0)))
    with pytest.raises(TorsionTooLargeError, match=r"orbit reached \d+ states, over the work "
                                                   r"bound 2 \(\|T\| = 8, k = 2\)"):
        marked_isomorphic(x, y)


def test_bruteforce_domain_errors():
    free = marked_group(1, (), ((1,),))
    with pytest.raises(NotFiniteError):
        marked_iso_bruteforce(free, free)
    huge = marked_group(0, (512,), ((1,),))
    with pytest.raises(TooLargeError):
        marked_iso_bruteforce(huge, huge)
    wide = marked_group(0, (2,) * 6, (tuple([1] + [0] * 5),))
    with pytest.raises(TooLargeError):
        marked_iso_bruteforce(wide, wide, max_candidates=10_000)


# --- relation properties -------------------------------------------------

def _random_marked(rng, free_rank, torsion, k):
    markers = [tuple(rng.randint(-4, 4) for _ in range(free_rank))
               + tuple(rng.randrange(d) for d in torsion) for _ in range(k)]
    return marked_group(free_rank, torsion, markers)


SMALL_SHAPES = [(0, (2,)), (0, (4,)), (0, (2, 2)), (0, (3,)), (0, (2, 4)),
                (1, ()), (1, (2,)), (2, ()), (1, (2, 2)), (0, (6,)), (2, (3,))]


def test_reflexive_and_negation_invariant():
    rng = random.Random(31)
    for free_rank, torsion in SMALL_SHAPES:
        for _ in range(8):
            k = rng.choice([1, 2, 3])
            x = _random_marked(rng, free_rank, torsion, k)
            assert marked_isomorphic(x, x)
            negated = MarkedGroup(x.group, tuple(m.negate() for m in x.markers))
            assert marked_isomorphic(x, negated)


def test_symmetric():
    rng = random.Random(32)
    for free_rank, torsion in SMALL_SHAPES:
        for _ in range(10):
            k = rng.choice([1, 2])
            x = _random_marked(rng, free_rank, torsion, k)
            y = _random_marked(rng, free_rank, torsion, k)
            assert marked_isomorphic(x, y) == marked_isomorphic(y, x)


def test_transitive_on_small_shapes():
    rng = random.Random(33)
    for free_rank, torsion in SMALL_SHAPES[:6]:
        trios = 0
        while trios < 40:
            k = rng.choice([1, 2])
            x = _random_marked(rng, free_rank, torsion, k)
            y = _random_marked(rng, free_rank, torsion, k)
            z = _random_marked(rng, free_rank, torsion, k)
            trios += 1
            if marked_isomorphic(x, y) and marked_isomorphic(y, z):
                assert marked_isomorphic(x, z)


def test_filters_accept_true_pairs():
    rng = random.Random(34)
    for free_rank, torsion in SMALL_SHAPES:
        for _ in range(10):
            k = rng.choice([1, 2])
            x = _random_marked(rng, free_rank, torsion, k)
            y = _random_marked(rng, free_rank, torsion, k)
            if marked_isomorphic(x, y):
                assert all(_quotient(a) == _quotient(b) for a, b in zip(x.markers, y.markers))


# --- oracle agreement ----------------------------------------------------

def test_quotient_partitions_t_into_automorphism_orbits():
    """The lemma of the module docstring, exhaustively: on every finite
    abelian group of order <= 128, a and b share an Aut(T)-orbit exactly when
    T/<a> and T/<b> are isomorphic.  The orbits come from a breadth-first
    search over the generating set of Aut(T)."""
    elements = 0
    for ds in abelian_group_types(128):
        group = marked_group(0, ds, ()).group
        gens = _generators(ds)
        orbits, seen = set(), set()
        for start in itertools.product(*map(range, ds)):
            if start in seen:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                a = frontier.pop()
                for gen in gens:
                    b = _act(gen, a, ds)
                    if b not in orbit:
                        orbit.add(b)
                        frontier.append(b)
            seen |= orbit
            orbits.add(frozenset(orbit))
        by_quotient = {}
        for a in itertools.product(*map(range, ds)):
            by_quotient.setdefault(_quotient(GroupElement(group, a, ())), set()).add(a)
        assert set(map(frozenset, by_quotient.values())) == orbits, ds
        elements += math.prod(ds)
    assert elements == 17169  # 247 chains, the trivial group among them


def test_unit_group_generators_reach_every_unit():
    """For every modulus d of a group the orbit walk accepts, the products of
    the generators reach every unit of Z/d (breadth-first search)."""
    for d in range(2, markediso.DEFAULT_TORSION_BOUND + 1):
        gens = _unit_group_generators(d)
        reached, frontier = {1}, [1]
        while frontier:
            u = frontier.pop()
            for g in gens:
                if u * g % d not in reached:
                    reached.add(u * g % d)
                    frontier.append(u * g % d)
        assert reached == {u for u in range(1, d) if math.gcd(u, d) == 1}, d


def test_generator_triples_are_automorphisms_up_to_the_walk_bound():
    """On every chain with 128 < |T| <= DEFAULT_TORSION_BOUND, beyond the
    orbit test above, each generator permutes T and is additive:
    g(a + e_s) = g(a) + g(e_s) on a seeded sample of a, so that m c_s is well
    defined mod d_r when c_s is taken mod d_s."""
    rng = random.Random(27)
    chains = 0
    for ds in abelian_group_types(markediso.DEFAULT_TORSION_BOUND):
        order = math.prod(ds)
        if order <= 128:
            continue

        def add(a, b):
            return tuple((x + y) % d for x, y, d in zip(a, b, ds))

        elems = list(itertools.product(*map(range, ds)))
        basis = [tuple(int(q == s) for q in range(len(ds))) for s in range(len(ds))]
        sample = [elems[i] for i in rng.sample(range(order), 3)]
        for gen in _generators(ds):
            assert len({_act(gen, a, ds) for a in elems}) == order, ds
            for a in sample:
                for e in basis:
                    assert _act(gen, add(a, e), ds) == add(_act(gen, a, ds), _act(gen, e, ds)), ds
        chains += 1
    assert chains == 813


def test_agrees_with_bruteforce_on_random_finite_cases():
    rng = random.Random(35)
    shapes = [(2,), (3,), (4,), (8,), (2, 2), (2, 4), (3, 3), (2, 2, 2),
              (4, 4), (2, 2, 4), (12,), (2, 6), (2, 2, 2, 2)]
    for torsion in shapes:
        for _ in range(25):
            k = rng.choice([1, 1, 2, 2, 3])
            x = _random_marked(rng, 0, torsion, k)
            if rng.random() < 0.4:
                y = MarkedGroup(x.group, tuple(m.scale(rng.choice([1, -1]))
                                               for m in x.markers))
            else:
                y = _random_marked(rng, 0, torsion, k)
            assert marked_isomorphic(x, y) == marked_iso_bruteforce(x, y)


def _one_marker_pairs(rng, max_order, cases, free_rank=0):
    """Single-marker pairs in Z^free_rank + T over every invariant-factor chain
    with |T| <= max_order.  Free parts lie in [-6, 6], and y keeps the free
    part of x with probability 0.7.  The torsion part of y is a unit multiple
    of that of x (the same orbit) or random."""
    for ds in abelian_group_types(max_order):
        for _ in range(cases(math.prod(ds))):
            fx = tuple(rng.randint(-6, 6) for _ in range(free_rank))
            fy = fx if free_rank and rng.random() < 0.7 else \
                tuple(rng.randint(-6, 6) for _ in range(free_rank))
            x = tuple(rng.randrange(d) for d in ds)
            if ds and rng.random() < 0.3:
                unit = rng.choice([u for u in range(1, ds[-1] + 1) if math.gcd(u, ds[-1]) == 1])
                y = tuple(unit * c % d for c, d in zip(x, ds))
            else:
                y = tuple(rng.randrange(d) for d in ds)
            yield (marked_group(free_rank, ds, (fx + x,)),
                   marked_group(free_rank, ds, (fy + y,)))


def test_height_sequences_agree_with_orbit_walk():
    rng = random.Random(38)
    verdicts = []
    for x, y in _one_marker_pairs(rng, 160, lambda order: 3 if order <= 64 else 1):
        fast = marked_isomorphic(x, y)
        assert fast == _orbit_walk(x, y), (x.group.torsion, x.markers, y.markers)
        verdicts.append(fast)
    assert len(verdicts) > 500 and 100 < sum(verdicts) < len(verdicts) - 100


def test_extension_class_agrees_with_orbit_walk():
    """One marker with a nonzero free part, decided by the class of
    0 -> Z -> G -> G/<x> -> 0, against the orbit walk on every chain with
    |T| <= 160 and free rank 1 or 2."""
    rng = random.Random(41)
    verdicts = []
    for free_rank in (1, 2):
        for x, y in _one_marker_pairs(rng, 160, lambda order: 1, free_rank):
            fast = marked_isomorphic(x, y)
            assert fast == _orbit_walk(x, y), (x.group.torsion, x.markers, y.markers)
            verdicts.append(fast)
    assert sum(verdicts) >= 100 and len(verdicts) - sum(verdicts) >= 100


def test_extension_class_at_large_primes_needs_no_walk(monkeypatch):
    """In Z + Z/p + Z/(32pq) with p, q > 10^12, an explicit automorphism
    (a transvection e_1 -> e_1 + 32q e_2, the unit 3, the shift by
    psi(e_free) = 5 e_2 and the sign of the free part) carries (p, 1, 0) to
    (-p, 3, 96q + 5p).  (p, 0, 0) and (2, 0, 1) differ from their partners in
    G/<x>: (p, 1, 0) leaves Z/p + Z/(32 p^2 q) against Z/p + Z/p + Z/(32pq),
    and (2, 0, 1) leaves Z/p + Z/(64pq) against Z/2 + Z/p + Z/(32pq)."""
    monkeypatch.setattr(markediso, "_orbit_walk", _refuse_walk)
    ds = (P, 32 * P * Q)

    def iso(a, b):
        return marked_isomorphic(marked_group(1, ds, (a,)), marked_group(1, ds, (b,)))

    assert iso((P, 1, 0), (-P, 3, 96 * Q + 5 * P))
    assert not iso((P, 1, 0), (P, 0, 0))
    assert not iso((2, 0, 1), (2, 0, 0))


def test_height_sequences_agree_with_bruteforce():
    rng = random.Random(39)
    verdicts = []
    for x, y in _one_marker_pairs(rng, 64, lambda order: 6):
        try:
            oracle = marked_iso_bruteforce(x, y, max_candidates=20_000)
        except TooLargeError:
            continue
        assert marked_isomorphic(x, y) == oracle, (x.group.torsion, x.markers, y.markers)
        verdicts.append(oracle)
    assert len(verdicts) > 400 and 50 < sum(verdicts) < len(verdicts) - 50


# Primes above 10^12, too large for trial division to find.
P, Q = 1_000_000_000_039, 1_000_000_000_121


def _valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _prime_height_sequence(coords, ds, p):
    """h(a), h(p a), h(p^2 a), ... in the p-part, from valuations at the prime p."""
    vals = [(_valuation(math.gcd(c, d), p), _valuation(d, p)) for c, d in zip(coords, ds)]
    return tuple(min((i + f for f, e in vals if f + i < e), default=None)
                 for i in range(max(e for _, e in vals)))


def test_height_sequences_on_composite_base_match_prime_reference(monkeypatch):
    monkeypatch.setattr(markediso, "_orbit_walk", _refuse_walk)
    ds = (P * Q, (P * Q) ** 2 * 32)
    rng = random.Random(40)

    def coordinate(d):
        """An odd unit below 10^9 times powers of pq and 2, so that gcds with
        d never split pq."""
        pq_power = (P * Q) ** rng.randint(0, _valuation(d, P * Q))
        return rng.randrange(1, 10**9, 2) * pq_power * 2 ** rng.randint(0, 5) % d

    verdicts = []
    for _ in range(300):
        x = tuple(coordinate(d) for d in ds)
        roll = rng.random()
        if roll < 0.3:
            unit = rng.randrange(1, 10**9, 2)
            y = tuple(unit * c % d for c, d in zip(x, ds))
        elif roll < 0.6:
            y = tuple(c * 2 ** rng.randint(0, 1) % d for c, d in zip(x, ds))
        else:
            y = tuple(coordinate(d) for d in ds)
        expected = all(_prime_height_sequence(x, ds, p) == _prime_height_sequence(y, ds, p)
                       for p in (2, P, Q))
        got = marked_isomorphic(marked_group(0, ds, (x,)), marked_group(0, ds, (y,)))
        assert got == expected, (x, y)
        verdicts.append(got)
    assert 50 < sum(verdicts) < len(verdicts) - 50


def _fp_left_nullspace(rows, p):
    """Row-reduced basis of {c : sum_i c_i * rows_i = 0 (mod p)}, canonical."""
    k = len(rows)
    t = len(rows[0]) if rows else 0
    # transpose: solve M^T c = 0 over F_p
    m = [[rows[i][j] % p for i in range(k)] for j in range(t)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, t) if m[i][col] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(t):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free_cols = [c for c in range(k) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [0] * k
        vec[fc] = 1
        for row_i, pc in enumerate(pivots):
            vec[pc] = (-m[row_i][fc]) % p
        basis.append(tuple(vec))
    return sorted(basis)


def _all_torsion_automorphisms(ds):
    """Every automorphism of + Z/d_s by dumb generator-image enumeration."""
    t = len(ds)
    order = math.prod(ds)
    elems = list(itertools.product(*[range(d) for d in ds]))

    def add(u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, ds))

    def smul(c, u):
        return tuple(c * a % d for a, d in zip(u, ds))

    def apply(imgs, coeffs):
        acc = (0,) * t
        for c, u in zip(coeffs, imgs):
            acc = add(acc, smul(c, u))
        return acc

    for imgs in itertools.product(elems, repeat=t):
        if any(any(ds[s] * imgs[s][j] % ds[j] for j in range(t)) for s in range(t)):
            continue
        if len({apply(imgs, coeffs) for coeffs in elems}) == order:
            yield lambda u, imgs=imgs: apply(imgs, u)


def test_shift_subgroup_against_direct_enumeration():
    """For free rank 1 every isomorphism is (eps, psi, alpha) with eps = +-1,
    psi in T and alpha in Aut(T); compare the decision procedure against a
    literal search over that product."""
    rng = random.Random(37)
    for ds in [(2,), (3,), (4,), (2, 2), (6,), (2, 4)]:
        elems = list(itertools.product(*[range(d) for d in ds]))
        autos = list(_all_torsion_automorphisms(ds))

        def add(u, v):
            return tuple((a + b) % d for a, b, d in zip(u, v, ds))

        def smul(c, u):
            return tuple(c * a % d for a, d in zip(u, ds))

        for _ in range(20):
            k = rng.choice([1, 2, 2, 3])
            xm = [(rng.randint(-3, 3), tuple(rng.randrange(d) for d in ds))
                  for _ in range(k)]
            ym = list(xm) if rng.random() < 0.35 else \
                [(rng.randint(-3, 3), tuple(rng.randrange(d) for d in ds))
                 for _ in range(k)]
            expected = any(
                all(eps * xf == yf and add(alpha(xt), smul(xf, psi)) == yt
                    for (xf, xt), (yf, yt) in zip(xm, ym))
                for eps in (1, -1) for psi in elems for alpha in autos)
            x = marked_group(1, ds, [(xf,) + xt for xf, xt in xm])
            y = marked_group(1, ds, [(yf,) + yt for yf, yt in ym])
            assert marked_isomorphic(x, y) == expected


def test_elementary_abelian_oracle():
    """Over a vector space, marker tuples are equivalent iff their linear
    relation spaces coincide; check the full search against that criterion."""
    rng = random.Random(36)
    for p, t in [(2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2)]:
        torsion = (p,) * t
        for _ in range(30):
            k = rng.choice([1, 2] if p ** t > 32 else [1, 2, 3])
            x = _random_marked(rng, 0, torsion, k)
            y = _random_marked(rng, 0, torsion, k)
            xr = [m.torsion_coords for m in x.markers]
            yr = [m.torsion_coords for m in y.markers]
            expected = _fp_left_nullspace(xr, p) == _fp_left_nullspace(yr, p)
            assert marked_isomorphic(x, y) == expected


# --- the classification criterion ----------------------------------------

def test_ck_isomorphic_reflexive():
    a = validate(A5)
    assert ck_isomorphic(a, a)


def test_ck_isomorphic_separates_transposed_pair():
    assert not ck_isomorphic(validate(A5), validate(A6))


def test_ck_isomorphic_fibonacci_is_cuntz_2():
    assert ck_isomorphic(validate(FIBONACCI), validate(cuntz_rows(2)))


def test_ck_isomorphic_cuntz_algebras_distinct():
    mats = [validate(cuntz_rows(n)) for n in (2, 3, 4, 5)]
    for i, j in itertools.combinations(range(4), 2):
        assert not ck_isomorphic(mats[i], mats[j])
