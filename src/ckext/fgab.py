"""Finitely generated abelian groups presented as cokernels Z^N / M Z^N.

A group is its presentation M with a coordinate map (k x N), a lift (N x k)
and the factor of each coordinate, in one layout: the torsion, a divisibility
chain d_1 | d_2 | ... of factors > 1, then a 0 for each free coordinate.
``modular_cokernel``, for M of rank N - r with a saturated basis
Y of its left kernel, a right inverse Z of Y and the order delta of the
torsion, takes the free coordinates from Y and the torsion from the Smith
form of [M | Z] modulo delta, or, when r = 0, off a row w with
gcd(w, delta) = 1 that kills M modulo delta.  invariants._weak_group
reads those inputs for the residual of I - A off its Bareiss passes;
invariants' strong relation matrix and markediso's quotients know them in
closed form.  It returns the coordinate map, lift and factors unchecked;
each caller certifies them once (``certified_group``, entry by entry)
against the presentation it reports, I - A or I - A^ for invariants.

Canonical coordinates depend on the (non-unique) coordinate map, so raw
coordinates of the *same abstract group* computed from *different*
presentations are not comparable; cross-presentation comparison goes through
the marked-group machinery instead.  Recomputing a group from an identical
presentation always reproduces identical coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from collections.abc import Sequence

from .exactmat import IntMatrix, DimensionMismatchError, _smith_mod, _xgcd


class ParentMismatchError(ValueError):
    """Elements belong to different groups."""


@dataclass(frozen=True)
class FgAbelianGroup:
    """Cokernel Z^N / (column lattice of presentation) in canonical form:
    ``coords`` maps representatives to canonical coordinates, ``lift`` maps
    coordinates back, and ``factors`` are laid out as in the module docstring
    (else ValueError), which sets ``torsion`` and ``free_rank``."""

    presentation: IntMatrix
    coords: IntMatrix
    lift: IntMatrix
    factors: tuple[int, ...]
    torsion: tuple[int, ...] = field(init=False, compare=False)
    free_rank: int = field(init=False, compare=False)

    def __post_init__(self):
        r = self.factors.count(0)
        torsion = self.factors[:len(self.factors) - r]
        if any(d <= 1 for d in torsion) or any(e % d for d, e in zip(torsion, torsion[1:])):
            raise ValueError(f"factors {list(self.factors)} are not a divisibility chain "
                             "of torsion factors > 1, then zeros")
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "free_rank", r)

    def is_trivial(self) -> bool:
        return not self.factors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.torsion), (0,) * self.free_rank)

    def class_of(self, v: Sequence[int]) -> "GroupElement":
        """Canonical coordinates of the class [v]."""
        w, t = self.coords.mul_vec(v), len(self.torsion)
        return GroupElement(self, tuple(map(operator.mod, w[:t], self.torsion)), w[t:])

    def columns_in_class(self, m: IntMatrix, a: "GroupElement") -> bool:
        """Whether every column of m has class a: one matrix product, each
        row compared with a's coordinate modulo its factor."""
        if a.parent != self:
            raise ParentMismatchError("element belongs to a different group")
        return not any((x - c) % d if d else x - c
                       for row, c, d in zip((self.coords @ m).entries,
                                            a.torsion_coords + a.free_coords, self.factors)
                       for x in row)

    def representative(self, a: "GroupElement") -> tuple[int, ...]:
        """Some vector v in Z^N with class_of(v) == a."""
        if a.parent != self:
            raise ParentMismatchError("element belongs to a different group")
        return self.lift.mul_vec(a.torsion_coords + a.free_coords)


@dataclass(frozen=True)
class GroupElement:
    """Element class in canonical coordinates.

    Torsion coordinate i lies in [0, d_i); equality of elements of the same
    group is plain coordinate equality.
    """

    parent: FgAbelianGroup
    torsion_coords: tuple[int, ...]
    free_coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.torsion_coords) != len(self.parent.torsion):
            raise ValueError("torsion coordinate count mismatch")
        if len(self.free_coords) != self.parent.free_rank:
            raise ValueError("free coordinate count mismatch")
        for c, d in zip(self.torsion_coords, self.parent.torsion):
            if not 0 <= c < d:
                raise ValueError("torsion coordinate out of range")

    def is_zero(self) -> bool:
        return not any(self.torsion_coords) and not any(self.free_coords)

    def add(self, other: "GroupElement") -> "GroupElement":
        if self.parent != other.parent:
            raise ParentMismatchError("cannot add elements of different groups")
        t = tuple((a + b) % d for a, b, d in
                  zip(self.torsion_coords, other.torsion_coords, self.parent.torsion))
        f = tuple(a + b for a, b in zip(self.free_coords, other.free_coords))
        return GroupElement(self.parent, t, f)

    def negate(self) -> "GroupElement":
        t = tuple((-a) % d for a, d in zip(self.torsion_coords, self.parent.torsion))
        f = tuple(-a for a in self.free_coords)
        return GroupElement(self.parent, t, f)

    def scale(self, k: int) -> "GroupElement":
        t = tuple((k * a) % d for a, d in zip(self.torsion_coords, self.parent.torsion))
        f = tuple(k * a for a in self.free_coords)
        return GroupElement(self.parent, t, f)

    __add__ = add
    __neg__ = negate

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self.add(other.negate())


def modular_cokernel(m: IntMatrix, delta: int, w: Sequence[int] = (),
                     ys: Sequence[Sequence[int]] = (), zs: Sequence[Sequence[int]] = ()
                     ) -> tuple[IntMatrix, IntMatrix, tuple[int, ...]]:
    """(coords, lift, factors) of Z^N / m Z^N = Z^r + T for a square m of
    rank N - r, given the order delta > 0 of T, rows ys with ys m = 0,
    columns zs with ys zs = I_r and, when r = 0, a row w with w m = 0 (mod delta).

    v -> ys v is onto Z^r, split by zs, so T = Z^N / (m Z^N + zs Z^r), which
    holds delta Z^N.  When gcd(w_1, ..., w_N, delta) = 1, v -> w v mod delta
    is onto Z/delta = T, with a lift g, w g = 1 (mod delta).  Otherwise the
    Smith form of [m | zs] modulo delta gives T, each lift g moved to
    g - zs (ys g) so that ys kills it.  The factors multiplying to delta,
    checked here, and the caller's certified_group make the coordinate map
    an onto map Z^r + T -> Z^r + T' with |T'| = |T|, whose kernel, finite
    and so inside T, is then 0.
    """
    if math.gcd(delta, *w) == 1:
        factors = (delta,)
        u_rows, lifts = ([w], [_unit_lift(w, delta)]) if delta > 1 else ([], [])
    else:
        factors, u_rows, lifts = _smith_mod(
            m.hstack(IntMatrix.from_columns(zs, rows=m.rows)) if zs else m, delta)
    for g in lifts:
        for c, z in zip([sum(map(operator.mul, y, g)) for y in ys], zs):
            g[:] = [p - c * q for p, q in zip(g, z)]
    if math.prod(factors) != delta:
        raise ArithmeticError("invariant factors do not multiply to the torsion order")
    torsion = tuple(f for f in factors if f > 1)
    coords = [tuple([x % f for x in row])  # from a list: see IntMatrix.from_rows
              for f, row in zip(torsion, u_rows)] + [tuple(y) for y in ys]
    return (IntMatrix(len(coords), m.cols, tuple(coords)),
            IntMatrix.from_columns([*lifts, *zs], rows=m.rows), torsion + (0,) * len(ys))


def _unit_lift(w: Sequence[int], d: int) -> list[int]:
    """A vector g with w g = 1 (mod d), for gcd(w_1, ..., w_N, d) = 1, and
    exactly when d = 0: the running gcd r = gcd(d, w_1, ..., w_j) is kept as
    r = w g (mod d), and the fold stops once r = 1."""
    g, r = [0] * len(w), d
    for j, x in enumerate(w):
        if r == 1:
            break
        r, c, e = _xgcd(r, x)
        g[:j] = [c * y % d if d else c * y for y in g[:j]]
        g[j] = e % d if d else e
    return g


def certified_group(presentation: IntMatrix, coords: IntMatrix, lift: IntMatrix,
                    factors: tuple[int, ...]) -> FgAbelianGroup:
    """Z^N / (column lattice of presentation) in the given coordinates, checked:
    coords sends each column of the presentation to 0 and column k of lift to
    e_k, modulo the factors (exactly where a factor is 0).  Each entry of the
    two products is checked as it is formed; neither product is built."""
    k = len(factors)
    if (coords.rows, lift.cols) != (k, k):
        raise DimensionMismatchError("coordinate map and lift do not match the factors")
    if presentation.rows != coords.cols or lift.rows != coords.cols:
        raise DimensionMismatchError("inner dimensions differ")
    columns = lift.columns() + presentation.columns()  # column i of lift goes to e_i
    for i, (f, row) in enumerate(zip(factors, coords.entries)):
        for j, col in enumerate(columns):
            x = sum(map(operator.mul, row, col)) - (i == j)
            if x % f if f else x:
                raise ArithmeticError("coordinate map does not present the cokernel")
    return FgAbelianGroup(presentation, coords, lift, factors)


def element_order(a: GroupElement) -> int | None:
    """Least k > 0 with k*a = 0, or None when the order is infinite."""
    if any(a.free_coords):
        return None
    order = 1
    for c, d in zip(a.torsion_coords, a.parent.torsion):
        order = math.lcm(order, d // math.gcd(d, c))
    return order
