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
generating set of Aut(T): the unit scalings of each cyclic factor Z/d plus
the compatible elementary transvections between factors, each a triple
(s, r, m) acting as c_r -> c_r + m c_s on the coordinates of every marker.
The scalings use the units of Z/d taken in increasing order, each one that
the units before it do not generate, with the generated subgroup grown by
coset closure, so no integer is factored.  An orbit state is the flat tuple
of the k markers' torsion coordinates, and it reaches the target when its
difference from the target's tuple lies in the shift subgroup.  A k-tuple's
orbit has at most |T|^k states, so the walk refuses |T| above a bound (512,
which keeps two markers under the four-million-state work bound), but only
once the per-marker and free-part filters have failed to separate the pair.

`marked_iso_bruteforce` is the independent oracle: a plain backtracking
enumeration of all isomorphisms by generator images, with no automorphism
theory behind it, feasible for small finite groups only.  Its |T|^2 addition
table and element indexing are its own; the walk uses neither.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index

from .exactmat import IntMatrix, hnf_columns
from .fgab import (FgAbelianGroup, GroupElement, certified_group, element_order,
                   modular_cokernel)
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

    ``torsion`` lists invariant factors > 1 in ascending divisibility order
    (else ValueError); each marker is a coordinate tuple of length
    free_rank + len(torsion), free coordinates first, and keeps them.  The
    group itself lays its coordinates out torsion first.
    """
    torsion = tuple(map(index, torsion))
    if any(d <= 1 for d in torsion) or any(e % d for d, e in zip(torsion, torsion[1:])):
        raise ValueError(f"torsion {list(torsion)} is not a divisibility chain of factors > 1")
    eye = IntMatrix.identity(len(torsion) + free_rank)
    group = certified_group(_presentation(torsion, free_rank), eye, eye,
                            torsion + (0,) * free_rank)
    elems = tuple(group.class_of(c[free_rank:] + c[:free_rank])
                  for c in (tuple(map(index, coords)) for coords in markers))
    return MarkedGroup(group, elems)


def _presentation(ds: tuple[int, ...], r: int, *extra) -> IntMatrix:
    """The relations d_s e_s that present T + Z^r in Z^(t+r), then extra."""
    n = len(ds) + r
    return IntMatrix.from_columns([[d * (i == s) for i in range(n)]
                                   for s, d in enumerate(ds)] + list(extra), rows=n)


def _adjoin(span, g, op):
    """The subgroup generated by the finite subgroup ``span`` and g, as the
    union of the cosets span.g^j up to the first j with g^j in span."""
    acc = set(span)
    gj = g
    while gj not in span:
        acc.update(op(s, gj) for s in span)
        gj = op(gj, g)
    return acc


# ---------------------------------------------------------------------------
# Aut(T) generators for T = Z/d_1 + ... + Z/d_t, d_1 | d_2 | ... | d_t


def _unit_group_generators(d: int) -> list[int]:
    """Generators of (Z/d)^*: each unit the earlier ones do not generate."""
    gens, span = [], {1}
    for u in range(2, d):
        if u not in span and math.gcd(u, d) == 1:
            gens.append(u)
            span = _adjoin(span, u, lambda a, b: a * b % d)
    return gens


def _generators(ds: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """A generating set of Aut(T), each generator a triple (s, r, m) that
    maps c_r -> c_r + m c_s mod d_r.

    The unit scalings c_s -> rho c_s (s = r, m = rho - 1) for the generators
    rho of (Z/d_s)^*, and for s != r the elementary transvection
    e_s -> e_s + m e_r, with the least m that keeps the order of the image of
    e_s dividing d_s.
    """
    return ([(s, s, rho - 1) for s, d in enumerate(ds) for rho in _unit_group_generators(d)]
            + [(s, r, ds[r] // math.gcd(ds[r], ds[s]))
               for s, r in itertools.permutations(range(len(ds)), 2)])


def _act(gen: tuple[int, int, int], state: tuple[int, ...], ds) -> tuple[int, ...]:
    """The generator (s, r, m) applied to each marker of a state, the flat
    tuple of the markers' torsion coordinates."""
    s, r, m = gen
    c = list(state)
    for i in range(r, len(c), len(ds)):
        c[i] = (c[i] + m * c[i + s - r]) % ds[r]
    return tuple(c)


# ---------------------------------------------------------------------------
# the decision procedure


def _free_parts_matrix(x: MarkedGroup) -> IntMatrix:
    return IntMatrix.from_rows([m.free_coords for m in x.markers])


def _shift_subgroup(x: MarkedGroup) -> frozenset:
    """The subgroup of T^k of shift tuples (psi(x_1 free), ..., psi(x_k free))
    over all psi: Z^r -> T, as a set of states.

    Generated by, per free basis coordinate j and torsion generator e_s, the
    tuple with component i equal to (free part of marker i)_j times e_s.
    """
    ds = x.group.torsion
    mods = ds * len(x.markers)
    closure = {(0,) * len(mods)}

    def add(u, v):
        return tuple((a + b) % d for a, b, d in zip(u, v, mods))

    for j in range(x.group.free_rank):
        for s in range(len(ds)):
            gen = tuple(m.free_coords[j] * int(q == s) % d
                        for m in x.markers for q, d in enumerate(ds))
            closure = _adjoin(closure, gen, add)
    return frozenset(closure)


def _quotient(x: GroupElement) -> tuple[int, tuple[int, ...]]:
    """Free rank and invariant factors of G/<x>, which decide the orbit of x
    under Aut(G) (see the module docstring).

    For x = (f, tau) in Z^r + T with c = gcd(f), a basis change of Z^r sends
    f to c e_1, so G/<x> is Z^(r-1) plus the cokernel of M, the relations
    d_s e_s of T and (tau, c) on T + Z.  M is nonsingular of determinant
    c |T| when c != 0; when c = 0 its last row is 0, so e_t spans its left
    kernel and its torsion is T/<tau>.
    """
    g, c = x.parent, math.gcd(*x.free_coords)
    m = _presentation(g.torsion, 1, (*x.torsion_coords, c))
    if c:
        delta, ys = c * math.prod(g.torsion), []
    else:
        delta, ys = math.prod(g.torsion) // element_order(x), [[0] * len(g.torsion) + [1]]
    q = certified_group(m, *modular_cokernel(m, delta, (), ys, ys))
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
    if any(_quotient(a) != _quotient(b) for a, b in zip(x.markers, y.markers)):
        return False
    if hnf_columns(_free_parts_matrix(x)) != hnf_columns(_free_parts_matrix(y)):
        return False
    t_order = math.prod(ds)
    if t_order > DEFAULT_TORSION_BOUND:
        raise TorsionTooLargeError(
            f"TorsionTooLarge: |T| = {t_order} (invariant factors {list(ds)}) "
            f"with k = {k} markers exceeds the orbit-walk bound {DEFAULT_TORSION_BOUND}")
    if not ds:
        return True

    shifts = _shift_subgroup(x)
    mods = ds * k
    target = tuple(c for m in y.markers for c in m.torsion_coords)
    gens = _generators(ds)
    start = tuple(c for m in x.markers for c in m.torsion_coords)
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if tuple((b - a) % d for a, b, d in zip(state, target, mods)) in shifts:
            return True
        for gen in gens:
            nxt = _act(gen, state, ds)
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


def _encode(coords, ds) -> int:
    idx = 0
    for c, d in zip(coords, ds):
        idx = idx * d + c % d
    return idx


def _addition_table(ds: tuple[int, ...]) -> list[list[int]]:
    elems = list(itertools.product(*map(range, ds)))
    position = {e: i for i, e in enumerate(elems)}
    return [[position[tuple((a + b) % d for a, b, d in zip(ea, eb, ds))] for eb in elems]
            for ea in elems]


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
