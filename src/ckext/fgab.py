"""Finitely generated abelian groups presented as cokernels Z^N / M Z^N.

A group is its presentation M with a coordinate map (k x N), a lift (N x k)
and the invariant factor of each coordinate: 0 free, 1 collapsed, d > 1 torsion
of order d.  ``cokernel`` reads them off the Smith form of M.
``finite_cokernel``, for a nonsingular M, reads them off a row w with
gcd(w, |det M|) = 1 that kills M modulo |det M|, or else off the Smith form of
M modulo |det M|.  ``corank_one_cokernel``, for M of rank N - 1, takes the
free coordinate from a primitive row y with y M = 0 and the torsion from the
Smith form of [M | z] modulo its order, y z = 1.  Both are checked by
``certified_group``.  It also serves a caller that builds a group from a
smaller presentation with the same cokernel and carries its coordinate rows
and lifts over: invariants runs all of these on the small residual that
eliminating I - A on +-1 pivots leaves, and certifies the carried group
against I - A itself.

Canonical coordinates depend on the (non-unique) coordinate map, so raw
coordinates of the *same abstract group* computed from *different*
presentations are not comparable; cross-presentation comparison goes through
the marked-group machinery instead.  Recomputing a group from an identical
presentation always reproduces identical coordinates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence

from .exactmat import IntMatrix, DimensionMismatchError, _smith_mod, _xgcd, snf


class ParentMismatchError(ValueError):
    """Elements belong to different groups."""


@dataclass(frozen=True)
class FgAbelianGroup:
    """Cokernel Z^N / (column lattice of presentation) in canonical form:
    ``coords`` maps representatives to canonical coordinates, ``lift`` maps
    coordinates back, and ``factors`` are as in the module docstring.  The
    derived attributes are computed on first use."""

    presentation: IntMatrix
    coords: IntMatrix
    lift: IntMatrix
    factors: tuple[int, ...]

    @cached_property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)

    @cached_property
    def torsion_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.factors) if d > 1)

    @cached_property
    def free_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.factors) if d == 0)

    @cached_property
    def free_rank(self) -> int:
        return len(self.free_positions)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.torsion), (0,) * self.free_rank)

    @cached_property
    def _class_map(self) -> IntMatrix:
        """The rows of coords that give a coordinate: torsion, then free."""
        keep = self.torsion_positions + self.free_positions
        return IntMatrix(len(keep), self.coords.cols, tuple(self.coords.entries[i] for i in keep))

    def _element(self, w: Sequence[int]) -> "GroupElement":
        t = len(self.torsion)
        return GroupElement(self, tuple(map(operator.mod, w[:t], self.torsion)), tuple(w[t:]))

    def class_of(self, v: Sequence[int]) -> "GroupElement":
        """Canonical coordinates of the class [v]."""
        return self._element(self._class_map.mul_vec(v))

    def classes_of_columns(self, m: IntMatrix) -> list["GroupElement"]:
        """The class of each column of m, from one matrix product."""
        return [self._element(w) for w in (self._class_map @ m).columns()]

    def representative(self, a: "GroupElement") -> tuple[int, ...]:
        """Some vector v in Z^N with class_of(v) == a."""
        if a.parent != self:
            raise ParentMismatchError("element belongs to a different group")
        w = [0] * len(self.factors)
        for c, i in zip(a.torsion_coords + a.free_coords,
                        self.torsion_positions + self.free_positions):
            w[i] = c
        return self.lift.mul_vec(w)


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


def cokernel(m: IntMatrix) -> FgAbelianGroup:
    """Z^N / (column lattice of m) in the coordinates of the Smith form of m."""
    smith = snf(m)
    return FgAbelianGroup(m, smith.u, smith.u_inv, smith.factors())


def finite_cokernel(m: IntMatrix, det: int, w: Sequence[int]) -> FgAbelianGroup:
    """Z^N / (column lattice of m) for a square m with det(m) = det != 0, with
    one coordinate per torsion factor, given a row w with w m = 0 (mod det),
    such as w = 1^T adj(m), for which w m = det 1^T.

    With D = |det|, v -> w v mod D kills m Z^N.  When gcd(w_1, ..., w_N, D) = 1
    it is onto Z/D, so, as Z^N / m Z^N has order D, an isomorphism: the group
    is cyclic, with factor D (none when D = 1), coordinate row w mod D and a
    lift g with w g = 1 (mod D).  Otherwise the Smith form of m modulo D
    gives the coordinates.  Both are certified by certified_group and by the
    factors multiplying to D: the coordinate map is then onto a group of the
    order of Z^N / m Z^N and kills m Z^N, so it is an isomorphism.
    """
    d = abs(det)
    if math.gcd(d, *w) == 1:
        factors = (d,)
        u_rows, u_inv_cols = ([w], [_unit_lift(w, d)]) if d > 1 else ([], [])
    else:
        factors, u_rows, u_inv_cols = _smith_mod(m, d)
    return _modular_group(m, d, factors, u_rows, u_inv_cols)


def corank_one_cokernel(m: IntMatrix, y: Sequence[int], delta: int) -> FgAbelianGroup:
    """Z^N / (column lattice of m) = Z + T for a square m of rank N - 1, given
    a primitive row y with y m = 0 and the order delta > 0 of T.

    v -> y v kills m Z^N and is onto Z, split by an integral z with y z = 1,
    so T = Z^N / (m Z^N + Z z), and delta Z^N lies in m Z^N + Z z.  Its
    coordinates come from the Smith form of [m | z] modulo delta, each lift g
    moved to g - (y g) z so that y kills it; y is the free coordinate row,
    with lift z.  certified_group and the factors multiplying to delta make
    the coordinate map an onto map Z + T -> Z + T' with |T'| = |T|, whose
    kernel, finite and so inside T, is then 0.
    """
    z = _unit_lift(y, 0)
    factors, u_rows, lifts = ((), [], []) if delta == 1 else _smith_mod(
        m.hstack(IntMatrix.from_columns([z], rows=m.rows)), delta)
    for g in lifts:
        c = sum(map(operator.mul, y, g))
        g[:] = [p - c * q for p, q in zip(g, z)]
    return _modular_group(m, delta, factors, u_rows, lifts, (y, z))


def _modular_group(m: IntMatrix, d: int, factors, u_rows, lifts,
                   free: tuple | None = None) -> FgAbelianGroup:
    """The group of finite_cokernel and corank_one_cokernel: coordinate rows
    u_rows modulo the factors > 1, whose product must be d, with their lifts,
    and then, when free = (y, z), the free coordinate row y with lift z."""
    if math.prod(factors) != d:
        raise ArithmeticError("invariant factors do not multiply to the torsion order")
    torsion = tuple(f for f in factors if f > 1)
    coords = [tuple([x % f for x in row])  # from a list: see IntMatrix.from_rows
              for f, row in zip(torsion, u_rows)]
    lifts = list(lifts)
    if free:
        coords.append(tuple(free[0]))
        lifts.append(free[1])
    return certified_group(m, IntMatrix(len(coords), m.cols, tuple(coords)),
                           IntMatrix.from_columns(lifts, rows=m.rows),
                           torsion + (0,) * bool(free))


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
    e_k, modulo the factors (exactly where a factor is 0)."""
    def agrees(product: IntMatrix, target: IntMatrix) -> bool:
        return not any((x - y) % f if f else x - y
                       for f, row, trow in zip(factors, product.entries, target.entries)
                       for x, y in zip(row, trow))

    k = len(factors)
    if (coords.rows, lift.cols) != (k, k):
        raise DimensionMismatchError("coordinate map and lift do not match the factors")
    if not (agrees(coords @ presentation, IntMatrix.zeros(k, presentation.cols))
            and agrees(coords @ lift, IntMatrix.identity(k))):
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
