"""Finitely generated abelian groups presented as cokernels Z^N / M Z^N.

A group is its presentation M with a coordinate map (k x N), a lift (N x k)
and the invariant factor of each coordinate: 0 free, 1 collapsed, d > 1 torsion
of order d.  ``cokernel`` reads them off the Smith form of M.
``modular_cokernel``, for M of rank N - r with a saturated basis Y of its
left kernel, a right inverse Z of Y and the order delta of the torsion,
takes the free coordinates from Y and the torsion from the Smith form of
[M | Z] modulo delta, or, when r = 0, off a row w with gcd(w, delta) = 1
that kills M modulo delta.  ``certified_group`` checks the result; it also
serves a caller that carries a group over from a smaller presentation with
the same cokernel, as invariants does from the residual of I - A.

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


def modular_cokernel(m: IntMatrix, delta: int, w: Sequence[int] = (),
                     ys: Sequence[Sequence[int]] = (), zs: Sequence[Sequence[int]] = ()
                     ) -> FgAbelianGroup:
    """Z^N / (column lattice of m) = Z^r + T for a square m of rank N - r,
    given the order delta > 0 of T, rows ys with ys m = 0, columns zs with
    ys zs = I_r and, when r = 0, a row w with w m = 0 (mod delta).

    v -> ys v is onto Z^r, split by zs, so T = Z^N / (m Z^N + zs Z^r), which
    holds delta Z^N.  When gcd(w_1, ..., w_N, delta) = 1, v -> w v mod delta
    is onto Z/delta = T, with a lift g, w g = 1 (mod delta).  Otherwise the
    Smith form of [m | zs] modulo delta gives T, each lift g moved to
    g - zs (ys g) so that ys kills it.  certified_group and the factors
    multiplying to delta make the coordinate map an onto map
    Z^r + T -> Z^r + T' with |T'| = |T|, whose kernel, finite and so inside
    T, is then 0.
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
    return certified_group(m, IntMatrix(len(coords), m.cols, tuple(coords)),
                           IntMatrix.from_columns([*lifts, *zs], rows=m.rows),
                           torsion + (0,) * len(ys))


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


def _saturated(vectors: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """A basis b_1, ..., b_r of Q V cap Z^N for independent v_1, ..., v_r,
    and rows w_i with w_i b_j = [i = j]: the r-row form of a content division
    and _unit_lift(v, 0).  Given b_i and w_i for i < j, p_j = v_j less
    sum_{i<j} (w_i v_j) b_i is killed by every w_i, so an integral u in the
    span of v_1, ..., v_j is sum_{i<j} (w_i u) b_i plus a multiple of
    p_j / content(p_j), which extends the basis; it is v_j itself when that
    content is 1, so a saturated basis comes back as it is.  _unit_lift of
    it gives w, which is cleared on b_1, ..., b_{j-1}, and each w_i is
    cleared on b_j.  The caller checks the rows."""
    bs, ws = [], []
    for v in vectors:
        p = list(v)
        for wi, bi in zip(ws, bs):
            c = sum(map(operator.mul, wi, p))
            p = [x - c * y for x, y in zip(p, bi)]
        g = math.gcd(*p) or 1
        p = [x // g for x in p]
        b = list(v) if g == 1 else p
        w = _unit_lift(p, 0)
        for wi, bi in zip(ws, bs):
            e = sum(map(operator.mul, w, bi))
            w = [x - e * y for x, y in zip(w, wi)]
        ws = [[x - c * y for x, y in zip(wi, w)]
              for c, wi in zip([sum(map(operator.mul, wi, b)) for wi in ws], ws)] + [w]
        bs.append(b)
    return bs, ws


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
