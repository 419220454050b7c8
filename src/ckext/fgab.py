"""Finitely generated abelian groups presented as cokernels Z^N / M Z^N.

A group is its presentation M with a coordinate map (k x N), a lift (N x k)
and the factor of each coordinate, in one layout: the torsion, a divisibility
chain d_1 | d_2 | ... of factors > 1, then a 0 for each free coordinate.
``modular_cokernel``, for M of rank N - r with a saturated basis
Y of its left kernel, a right inverse Z of Y and the order delta of the
torsion, takes the free coordinates from Y and the torsion from the Smith
form of [M | Z] modulo delta, or, when r = 0, off a row w with
gcd(w, delta) = 1 that kills M modulo delta.  invariants' strong relation
matrix and markediso's quotients know those inputs in closed form.
``certified_group`` checks the result, entry by entry; it also serves a
caller that carries a group over from a smaller presentation with the same
cokernel, as invariants does from the residual of I - A.

``_cokernel`` finds those inputs for a square M by one Bareiss pass of
[M^T | b] (exactmat.adjugate_or_kernel).  When det M != 0
it gives u = adj(M^T) b, u M = det M b^T, which kills M modulo
delta = |det M|.  Otherwise it names a
nonsingular (N-r)-minor M_0 of M, without the rows I and the columns J, and
r rows Y with Y M = 0, +-det M_0 I_r on I; r solves on M_0 give X with
M X = 0, det M_0 I_r on J.  Their saturations X* and Y* (_saturated) are
bases of Ker M and of the left kernel, with witnesses alpha X* = I_r,
checked, and Y* Z = I_r, checked by certified_group.  The torsion T of
Z^N / M Z^N = Z^r + T has order

    delta = |det M_0| / (|det Y*_I| |det X*_J|).

Proof: let U M V = diag(d_1, ..., d_{N-r}, 0, ..., 0) be a Smith form, so
|T| = d_1 ... d_{N-r}.  By Cauchy-Binet the (N-r)-minor of M = U^-1 D V^-1
on the rows S and the columns S' is |T| det U^-1_{S,P} det V^-1_{P,S'},
P = {1, ..., N-r}, and by Jacobi's complementary-minor identity for the
unimodular U and V these are +-det U_{P^c,S^c} and +-det V_{S'^c,P^c}.  The
last r rows of U and the last r columns of V are bases of the left kernel
and of Ker M, and any other bases, Y* and X*, change those minors by a unit.
So |det M_{S,S'}| = |T| |det Y*_{S^c}| |det X*_{S'^c}|, and S^c = I,
S'^c = J give delta.  The saturation matters: a delta that is too small
passes certified_group and the factors multiplying to delta (T = Z/4 read
modulo 2 is Z/2).

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
from typing import NamedTuple

from .exactmat import (IntMatrix, DimensionMismatchError, _smith_mod, _spread, _xgcd,
                       adjugate_or_kernel, adjugate_solve, determinant)


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


class _Cokernel(NamedTuple):
    """The group, det m, u = adj(m^T) b (None if det m = 0), d0 = det M_0,
    X* with alpha X* = I_r, and M_0's rows and columns in m."""

    group: FgAbelianGroup
    det: int
    u: tuple[int, ...] | None
    d0: int
    xs: list[list[int]]
    alpha: list[list[int]]
    rows: list[int]
    cols: list[int]


def _cokernel(m: IntMatrix, b: Sequence[int], orient) -> _Cokernel:
    """Z^k / m Z^k = Z^r + T for a square m of rank k - r, from one Bareiss
    pass of [m^T | b] (module docstring); when r > 0, each row y of the left
    kernel is negated unless y orient() <= 0 before it is saturated."""
    det, u, (j_out, i_out, ys) = adjugate_or_kernel(m.transpose(), b)
    k, r = m.rows, len(ys)
    rows = [i for i in range(k) if i not in i_out]
    cols = [j for j in range(k) if j not in j_out]
    if det:  # u m = det b^T, so u kills m modulo |det|
        return _Cokernel(modular_cokernel(m, abs(det), u), det, u, det, [], [], rows, cols)
    m0 = _minor(m.entries, rows, cols)
    xs = []
    for j in j_out:  # m x = 0, x = det M_0 e_j on j_out
        d0, x0 = adjugate_solve(m0, [-m.entries[i][j] for i in rows])
        x = _spread(k, cols, x0)
        x[j] = d0
        xs.append(x)
    if abs(ys[0][i_out[0]]) != abs(d0):
        raise ArithmeticError("the kernel bases do not check")
    o = orient()
    ys = [y if sum(map(operator.mul, y, o)) <= 0 else [-v for v in y] for y in ys]
    (xs, alpha), (ys, zs) = _saturated(xs), _saturated(ys)
    if not _is_dual(alpha, xs):
        raise ArithmeticError("the kernel basis is not saturated")
    minor = determinant(_minor(ys, range(r), i_out)) * determinant(_minor(xs, range(r), j_out))
    delta = _exact_quotient(abs(d0), abs(minor))
    return _Cokernel(modular_cokernel(m, delta, (), ys, zs), 0, None, d0, xs, alpha, rows, cols)


def _exact_quotient(x: int, den: int) -> int:
    q, r = divmod(x, den)
    if r:
        raise ArithmeticError(f"{x} is not divisible by {den}")
    return q


def _minor(entries, rows: Sequence[int], cols: Sequence[int]) -> IntMatrix:
    """The matrix of entries[i][j] for i in rows, j in cols."""
    return IntMatrix(len(rows), len(cols),
                     tuple([tuple([entries[i][j] for j in cols]) for i in rows]))


def _is_dual(ws, vs) -> bool:
    """Whether w_i v_j = [i = j] for the rows ws and the vectors vs."""
    return all(sum(map(operator.mul, wi, v)) == (i == j)
               for i, wi in enumerate(ws) for j, v in enumerate(vs))


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
