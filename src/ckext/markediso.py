"""Isomorphism of finitely generated abelian groups with marked elements.

A marked group is a group together with an ordered tuple of distinguished
elements; two marked groups are isomorphic when some group isomorphism carries
marker i to marker i for every i simultaneously.  Writing the group as
Z^r + T with finite torsion T, an isomorphism acts as

    (v_free, v_tors)  ->  (alpha_free v_free, psi(v_free) + alpha_T v_tors)

with alpha_free in GL_r(Z), alpha_T in Aut(T) and psi any homomorphism
Z^r -> T, so the decision splits into

  (a) equality of free ranks and invariant-factor lists,
  (b) a GL_r(Z)-orbit comparison of the tuples of free parts, settled by the
      column Hermite form of the matrix whose rows are the free parts,
  (c) a search over Aut(T) for the torsion parts, where the reachable
      psi-shifts form an explicit subgroup of T^k generated by the free parts
      against each torsion generator.

One marker needs no search.  A marker a with zero free part (every marker of
a finite group, so every nonsingular classification) is moved only by
Aut(T), and Aut(T) is the product of the Aut(T_p) over the primes p of |T|.
In a finite abelian p-group two elements share an Aut-orbit exactly when
they share the height sequence h(a), h(p a), h(p^2 a), ... (Baer, Proc. LMS
1935; Kaplansky, Infinite Abelian Groups, 1954, Thm 24).  With
T_p = + Z/p^(E_j) and a_j of valuation F_j (F_j = E_j when a_j = 0),

    h(p^i a) = i + min{F_j : F_j + i < E_j}      (infinite when empty).

The primes of |T| are not needed, only a coprime base: pairwise coprime
b > 1 such that every d_j and every gcd(a_j, d_j) is a product of powers of
the b (factor refinement by repeated gcds, Bach-Driscoll-Shallit,
J. Algorithms 15, 1993).  For p | b with s = v_p(b), E_j = s e_j and
F_j = s f_j, where e_j and f_j are the exponents of b in d_j and
gcd(a_j, d_j).  So the p-sequence is h(p^i a) = i + s g(i/s) with
g(t) = min{f_j : f_j + t < e_j}, and since e_j and f_j are integers,
f_j + t < e_j iff f_j + floor(t) < e_j: g depends only on floor(t).  Two
markers therefore have the same p-sequence for every p | b exactly when they
have the same g(0), g(1), g(2), ..., the b-height sequence
h_b(a), h_b(b a) - 1, h_b(b^2 a) - 2, ...  Comparing those over the base
costs a few gcds and divisions per invariant factor, polynomial in log|T|.

A marker x = (f, tau) with f != 0 has infinite order, so (G, x) is an
extension 0 -> Z -> G -> Q -> 0 with Q = G/<x>, decided up to Aut(Q) by Q and
the Aut(T_Q)-orbit of its class chi in Ext(Q, Z) = Hom(T_Q, Q/Z) (Fuchs,
Infinite Abelian Groups I, 1970, Sec. 52).  A torsion generator of Q of order
q_i lifts to g_i in G with q_i g_i = k_i x, so chi = (k_i mod q_i) in the dual
basis.  The dual group is again + Z/q_i, acted on by all its automorphisms,
so chi's orbit is settled by the height sequences above.

Two or more markers walk the orbit of the torsion-part tuple under a
classical generating set of Aut(T) (unit scalings of each cyclic factor plus
the compatible elementary transvections between factors), testing each orbit
point for membership in the shift coset of the target tuple.  Orbits live in T^k, so
the walk is bounded by |T|^k rather than |Aut(T)|; it builds a |T|^2
addition table and refuses torsion subgroups above a bound.

`marked_iso_bruteforce` is the independent oracle: a plain backtracking
enumeration of all isomorphisms by generator images, with no automorphism
theory behind it, feasible for small finite groups only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

from .exactmat import IntMatrix, hnf_columns
from .fgab import FgAbelianGroup, GroupElement, cokernel, element_order
from .invariants import ZeroOneMatrix, transpose, weak_pair


class MarkerCountMismatchError(ValueError):
    """The two marked groups carry different numbers of markers."""


class TorsionTooLargeError(ValueError):
    """Torsion subgroup exceeds the orbit walk's search bound."""


class NotFiniteError(ValueError):
    """Brute-force comparison requires finite groups."""


class TooLargeError(ValueError):
    """Brute-force enumeration would exceed its work bound."""


DEFAULT_TORSION_BOUND = 512

_ORBIT_STATE_BOUND = 4_000_000


@dataclass(frozen=True)
class MarkedGroup:
    """A group with an ordered tuple of marked elements."""

    group: FgAbelianGroup
    markers: tuple[GroupElement, ...]

    def __post_init__(self):
        for m in self.markers:
            if m.parent != self.group:
                raise ValueError("marker belongs to a different group")


def marked_group(free_rank: int, torsion: tuple[int, ...] | list[int],
                 markers) -> MarkedGroup:
    """Build a marked group from a descriptor.

    ``torsion`` lists invariant factors > 1 in ascending divisibility order;
    each marker is a coordinate tuple of length free_rank + len(torsion),
    free coordinates first.
    """
    torsion = tuple(map(index, torsion))
    group = cokernel(_presentation(free_rank, torsion))
    elems = tuple(group.class_of(tuple(map(index, coords))) for coords in markers)
    return MarkedGroup(group, elems)


def _presentation(r: int, ds: tuple[int, ...], *extra) -> IntMatrix:
    """The relations d_s e_(r+s) that present Z^r + T in Z^(r+t), then extra."""
    n = r + len(ds)
    return IntMatrix.from_columns([[d * (i == r + s) for i in range(n)]
                                   for s, d in enumerate(ds)] + list(extra), rows=n)


# ---------------------------------------------------------------------------
# fast necessary filters


def _marker_orders_match(x: MarkedGroup, y: MarkedGroup) -> bool:
    return all(element_order(a) == element_order(b)
               for a, b in zip(x.markers, y.markers))


def _mod_p_orders_match(x: MarkedGroup, y: MarkedGroup) -> bool:
    """Compare marker orders in G/pG for every prime p dividing |T|."""
    primes = set()
    for d in x.group.torsion:
        for p in _prime_factors(d):
            primes.add(p)
    for p in primes:
        for a, b in zip(x.markers, y.markers):
            if _nonzero_mod_p(a, p) != _nonzero_mod_p(b, p):
                return False
    return True


def _nonzero_mod_p(a: GroupElement, p: int) -> bool:
    if any(c % p for c in a.free_coords):
        return True
    return any(c % p for c, d in zip(a.torsion_coords, a.parent.torsion) if d % p == 0)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Aut(T) generators for T = Z/d_1 + ... + Z/d_t, d_1 | d_2 | ... | d_t


def _multiplicative_order(g: int, q: int) -> int:
    k, x = 1, g % q
    while x != 1:
        x = x * g % q
        k += 1
    return k


def _unit_group_generators(d: int) -> list[int]:
    """Generators of (Z/d)^* as residues, assembled prime power by prime power."""
    if d <= 2:
        return []
    gens = []
    for p in _prime_factors(d):
        q = 1
        dd = d
        while dd % p == 0:
            q *= p
            dd //= p
        rest = d // q
        if p == 2:
            local = [] if q == 2 else ([3] if q == 4 else [q - 1, 5])
        else:
            phi = q // p * (p - 1)
            local = [next(g for g in range(2, q)
                          if math.gcd(g, p) == 1 and _multiplicative_order(g, q) == phi)]
        for g in local:
            if rest == 1:
                gens.append(g % d)
            else:
                # CRT: congruent to g mod q, to 1 mod d/q
                x = (g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % d
                gens.append(x)
    return gens


def _aut_generator_images(ds: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Generating set of Aut(T) given by images of the standard generators.

    Unit scalings e_s -> rho e_s for generators rho of (Z/d_s)^*, and
    elementary transvections e_s -> e_s + lambda e_r with the least lambda
    that keeps the order of the image dividing d_s.  Unit scalings over each
    factor plus these transvections generate the full automorphism group.
    """
    t = len(ds)
    ident = [tuple(int(i == j) for j in range(t)) for i in range(t)]
    gens = []
    for s, d in enumerate(ds):
        for rho in _unit_group_generators(d):
            imgs = list(ident)
            imgs[s] = tuple(rho if j == s else 0 for j in range(t))
            gens.append(imgs)
    for s in range(t):
        for r2 in range(t):
            if s == r2:
                continue
            lam = ds[r2] // math.gcd(ds[r2], ds[s])
            imgs = list(ident)
            imgs[s] = tuple((int(j == s) + lam * int(j == r2)) % ds[j] for j in range(t))
            gens.append(imgs)
    return gens


def _encode(coords, ds) -> int:
    idx = 0
    for c, d in zip(coords, ds):
        idx = idx * d + c % d
    return idx


def _decode(idx: int, ds) -> tuple[int, ...]:
    out = [0] * len(ds)
    for s in range(len(ds) - 1, -1, -1):
        idx, out[s] = divmod(idx, ds[s])
    return tuple(out)


def _generator_tables(ds: tuple[int, ...]) -> list[list[int]]:
    """Per automorphism generator, the index permutation of T it induces."""
    order = math.prod(ds)
    t = len(ds)
    tables = []
    for imgs in _aut_generator_images(ds):
        table = [0] * order
        for idx in range(order):
            coords = _decode(idx, ds)
            image = [0] * t
            for s in range(t):
                cs = coords[s]
                if cs:
                    row = imgs[s]
                    for j in range(t):
                        image[j] += cs * row[j]
            table[idx] = _encode(image, ds)
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# the decision procedure


def _free_parts_matrix(x: MarkedGroup) -> IntMatrix:
    return IntMatrix.from_rows([m.free_coords for m in x.markers])


def _shift_subgroup(x: MarkedGroup, add_table) -> frozenset:
    """The subgroup of T^k of shift tuples (psi(x_1 free), ..., psi(x_k free))
    over all psi: Z^r -> T, as a set of encoded-element tuples.

    Generated by, per free basis coordinate j and torsion generator e_s, the
    tuple with component i equal to (free part of marker i)_j times e_s.
    """
    ds = x.group.torsion
    k, t = len(x.markers), len(ds)
    zero = (0,) * k
    closure = {zero}
    for j in range(x.group.free_rank):
        for s in range(t):
            gen = tuple(_encode(tuple(m.free_coords[j] * int(q == s) for q in range(t)), ds)
                        for m in x.markers)
            if gen in closure:
                continue
            # coset decomposition of <closure, gen>
            acc = set(closure)
            mult = gen
            while mult not in closure:
                acc.update(tuple(add_table[a][b] for a, b in zip(state, mult))
                           for state in closure)
                mult = tuple(add_table[a][b] for a, b in zip(mult, gen))
            closure = acc
    return frozenset(closure)


def _addition_table(ds: tuple[int, ...]) -> list[list[int]]:
    order = math.prod(ds)
    elems = [_decode(i, ds) for i in range(order)]
    return [[_encode(tuple(a + b for a, b in zip(ea, eb)), ds) for eb in elems]
            for ea in elems]


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 such that every given number is a product
    of their powers: while a pending number shares a factor g with a base
    member, both are replaced by g and their cofactors."""
    base: list[int] = []
    pending = [n for n in set(numbers) if n > 1]
    while pending:
        m = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(m, b)
            if g > 1:
                del base[i]
                pending += [n for n in (g, b // g, m // g) if n > 1]
                break
        else:
            base.append(m)
    return base


def _exponent(b: int, n: int) -> int:
    k = 0
    while n % b == 0:
        n //= b
        k += 1
    return k


def _height_sequence(coords: tuple[int, ...], ds: tuple[int, ...], b: int) -> tuple:
    """g(0), g(1), ... with g(m) = min{f_j : f_j + m < e_j}, where e_j and f_j
    are the exponents of the base member b in d_j and gcd(coords_j, d_j);
    None once b^m kills the element."""
    exps = [(_exponent(b, math.gcd(c, d)), _exponent(b, d)) for c, d in zip(coords, ds)]
    return tuple(min((f for f, e in exps if f + m < e), default=None)
                 for m in range(max(e for _, e in exps)))


def _same_height_sequences(xs: tuple[int, ...], ys: tuple[int, ...],
                           ds: tuple[int, ...]) -> bool:
    """Whether Aut(+ Z/d_j) carries the element with coordinates xs to the one
    with coordinates ys (see the module docstring)."""
    base = _coprime_base([*ds, *(math.gcd(c, d) for c, d in zip(xs + ys, ds + ds))])
    return all(_height_sequence(xs, ds, q) == _height_sequence(ys, ds, q) for q in base)


def _marker_class(x: MarkedGroup) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Free rank, invariant factors and coordinates that decide the single
    marker (f, tau) of x: those of the group and tau when f = 0, else those of
    Q = G/<x> and the extension class chi (see the module docstring)."""
    (m,) = x.markers
    r, ds, f = x.group.free_rank, x.group.torsion, m.free_coords
    if not any(f):
        return r, ds, m.torsion_coords
    q = cokernel(_presentation(r, ds, f + m.torsion_coords))
    j = next(j for j, c in enumerate(f) if c)
    qg = [d * q.lift.entries[j][i] for d, i in zip(q.torsion, q.torsion_positions)]
    if any(c % f[j] for c in qg):
        raise ArithmeticError("q_i g_i is not a multiple of the marker")
    return q.free_rank, q.torsion, tuple(c // f[j] % d for c, d in zip(qg, q.torsion))


def marked_isomorphic(x: MarkedGroup, y: MarkedGroup) -> bool:
    """Decide whether some isomorphism carries the markers of x to those of y
    in order.

    Exact and complete.  One marker is decided by height sequences, for
    torsion of any size.  Two or more markers walk the Aut(T) orbit, and
    torsion subgroups larger than ``DEFAULT_TORSION_BOUND`` are rejected
    loudly rather than searched approximately.
    """
    if len(x.markers) != len(y.markers):
        raise MarkerCountMismatchError(
            f"MarkerCountMismatch: {len(x.markers)} vs {len(y.markers)} markers")
    gx, gy = x.group, y.group
    if gx.free_rank != gy.free_rank or gx.torsion != gy.torsion:
        return False
    if len(x.markers) == 1:
        (r, ds, xs), (s, es, ys) = _marker_class(x), _marker_class(y)
        return (r, ds) == (s, es) and _same_height_sequences(xs, ys, ds)
    return _orbit_walk(x, y)


def _orbit_walk(x: MarkedGroup, y: MarkedGroup) -> bool:
    """The Aut(T) orbit walk, for marked groups whose free ranks and invariant
    factors are equal."""
    ds = x.group.torsion
    k = len(x.markers)
    if k == 0:
        return True
    t_order = math.prod(ds)
    if t_order > DEFAULT_TORSION_BOUND:
        raise TorsionTooLargeError(
            f"TorsionTooLarge: |T| = {t_order} (invariant factors {list(ds)}) "
            f"with k = {k} markers exceeds the orbit-walk bound {DEFAULT_TORSION_BOUND}")
    if not _marker_orders_match(x, y) or not _mod_p_orders_match(x, y):
        return False
    if hnf_columns(_free_parts_matrix(x)) != hnf_columns(_free_parts_matrix(y)):
        return False
    if not ds:
        return True

    add_table = _addition_table(ds)
    neg = [add_table[i].index(0) for i in range(len(add_table))]
    shifts = _shift_subgroup(x, add_table)
    y_state = tuple(_encode(m.torsion_coords, ds) for m in y.markers)

    def reaches_target(state: tuple[int, ...]) -> bool:
        diff = tuple(add_table[yi][neg[si]] for yi, si in zip(y_state, state))
        return diff in shifts

    start = tuple(_encode(m.torsion_coords, ds) for m in x.markers)
    tables = _generator_tables(ds)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if reaches_target(state):
            return True
        for table in tables:
            nxt = tuple(table[idx] for idx in state)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        if len(seen) > _ORBIT_STATE_BOUND:
            raise TorsionTooLargeError(
                f"TorsionTooLarge: marker-tuple orbit reached {len(seen)} states, "
                f"over the work bound {_ORBIT_STATE_BOUND} (|T| = {t_order}, k = {k})")
    return False


# ---------------------------------------------------------------------------
# brute-force oracle


def marked_iso_bruteforce(x: MarkedGroup, y: MarkedGroup, *,
                          max_candidates: int = 500_000) -> bool:
    """Exhaustive isomorphism search by generator images, for finite groups.

    Enumerates every assignment of images (filtered to order-compatible ones,
    pruned when a partial assignment is already non-injective), keeping only
    bijective homomorphisms, and accepts iff one preserves all markers.  The
    candidate-assignment count is bounded by ``max_candidates``; beyond it the
    search refuses rather than approximates.
    """
    if len(x.markers) != len(y.markers):
        raise MarkerCountMismatchError(
            f"MarkerCountMismatch: {len(x.markers)} vs {len(y.markers)} markers")
    gx, gy = x.group, y.group
    if gx.free_rank or gy.free_rank:
        raise NotFiniteError("NotFinite: brute force requires finite groups")
    order_x, order_y = math.prod(gx.torsion), math.prod(gy.torsion)
    if order_x > 256 or order_y > 256:
        raise TooLargeError("TooLarge: group order exceeds 256")
    if order_x != order_y:
        return False

    ds, es = gx.torsion, gy.torsion
    if not ds:
        return True  # both trivial; markers are all zero

    add = _addition_table(es)
    # scalar[c][u] = c * u, built by repeated addition
    scalar = [[0] * order_y]
    for c in range(1, max(ds) + 1):
        scalar.append([add[scalar[c - 1][u]][u] for u in range(order_y)])

    candidates = []
    count = 1
    for d in ds:
        cand = [u for u in range(order_y) if scalar[d][u] == 0]
        candidates.append(cand)
        count *= len(cand)
        if count > max_candidates:
            raise TooLargeError(f"TooLarge: {count}+ candidate assignments")

    x_coords = [m.torsion_coords for m in x.markers]
    y_idx = [_encode(m.torsion_coords, es) for m in y.markers]

    def span_with(span: frozenset, u: int) -> frozenset:
        acc = set(span)
        mu = u
        while mu not in span:
            acc.update(add[s][mu] for s in span)
            mu = add[mu][u]
        return frozenset(acc)

    def preserves_markers(images) -> bool:
        for ci, yi in zip(x_coords, y_idx):
            acc = 0
            for c, u in zip(ci, images):
                if c:
                    acc = add[acc][scalar[c][u]]
            if acc != yi:
                return False
        return True

    subgroup_orders = []
    o = 1
    for d in ds:
        o *= d
        subgroup_orders.append(o)

    def search(depth: int, span: frozenset, images: list) -> bool:
        if depth == len(ds):
            return len(span) == order_y and preserves_markers(images)
        for u in candidates[depth]:
            new_span = span_with(span, u)
            if len(new_span) != subgroup_orders[depth]:
                continue  # not injective on the leading factors
            images.append(u)
            if search(depth + 1, new_span, images):
                return True
            images.pop()
        return False

    return search(0, frozenset({0}), [])


# ---------------------------------------------------------------------------
# the classification criterion


def ck_isomorphic(a: ZeroOneMatrix, b: ZeroOneMatrix) -> bool:
    """Whether the Cuntz-Krieger algebras of a and b are isomorphic.

    The complete invariant is the weak extension group of the *transposed*
    matrix together with its Toeplitz class, compared as single-marker marked
    groups.
    """
    return marked_isomorphic(transposed_weak_pair(a), transposed_weak_pair(b))


def transposed_weak_pair(a: ZeroOneMatrix) -> MarkedGroup:
    """The weak group of A^T marked by its Toeplitz class, from one Smith form."""
    group, marker = weak_pair(transpose(a))
    return MarkedGroup(group, (marker,))
