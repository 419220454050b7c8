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

One marker needs no search: (G, x) and (G, y) are isomorphic exactly when
G/<x> and G/<y> are, by the lemma below.  G/<x> has free rank r when the
free part f of x is 0 and r - 1 otherwise, so the two cases never meet.

Lemma.  For finite abelian T and a, b in T, some automorphism of T takes a
to b iff T/<a> and T/<b> are isomorphic.

Proof.  Aut(T) is the product of the Aut(T_p), so work prime by prime and
let T be a p-group.  Then |p^i (T/<a>)| = |p^i T| / |p^i T cap <a>|, and
p^i T cap <a> = <p^(m_i) a>, where m_i is the least m with h(p^m a) >= i.
So the types of T and T/<a> fix every m_i.  That fixes
h(p^m a) = max{i : m_i <= m}, the height sequence of a, and the height
sequence fixes the orbit (Baer, Proc. LMS 1935; Kaplansky, Infinite Abelian
Groups, 1954, Thm 24).

Case f = 0, for x = (f, tau).  Aut(G) moves x only through Aut(T), and
G/<x> = Z^r + T/<tau>, so the lemma applies directly.

Case f != 0.  (G, x) is the extension 0 -> Z -> G -> Q -> 0 of Q = G/<x>
by Z, with class chi in Ext(Q, Z) = T_Q^ (Fuchs, Infinite Abelian Groups I,
1970, Sec. 52).  Aut(Q) acts on that class through all of Aut(T_Q^), and the
torsion of G is ker chi, isomorphic to T_Q^/<chi>.  So if G and G' are
isomorphic and so are Q and Q', the lemma puts chi and chi' in one orbit,
and an automorphism of Q that moves one class to the other lifts to an
isomorphism carrying x to x'.

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
from .fgab import FgAbelianGroup, GroupElement, cokernel, element_order, modular_cokernel
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


def _quotient(x: GroupElement) -> tuple[int, tuple[int, ...]]:
    """Free rank and invariant factors of G/<x>, which decide the orbit of x
    under Aut(G) (see the module docstring).

    For x = (f, tau) in Z^r + T with c = gcd(f), a basis change of Z^r sends
    f to c e_1, so G/<x> is Z^(r-1) plus the cokernel of M, the relations
    d_s e_s of T and (c, tau) on Z + T.  M is nonsingular of determinant
    c |T| when c != 0; when c = 0 its first row is 0, so e_0 spans its left
    kernel and its torsion is T/<tau>.
    """
    g, c = x.parent, math.gcd(*x.free_coords)
    m = _presentation(1, g.torsion, (c, *x.torsion_coords))
    if c:
        q = modular_cokernel(m, c * math.prod(g.torsion))
    else:
        e0 = [int(i == 0) for i in range(m.rows)]
        q = modular_cokernel(m, math.prod(g.torsion) // element_order(x), ys=[e0], zs=[e0])
    return g.free_rank - 1 + q.free_rank, q.torsion


def marked_isomorphic(x: MarkedGroup, y: MarkedGroup) -> bool:
    """Decide whether some isomorphism carries the markers of x to those of y
    in order.

    Exact and complete.  One marker x is decided by G/<x>, for torsion of
    any size.  Two or more markers walk the Aut(T) orbit, and
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
        return _quotient(x.markers[0]) == _quotient(y.markers[0])
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
    if any(_quotient(a) != _quotient(b) for a, b in zip(x.markers, y.markers)):
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
    """The weak group of A^T marked by its Toeplitz class."""
    group, marker = weak_pair(transpose(a))
    return MarkedGroup(group, (marker,))
