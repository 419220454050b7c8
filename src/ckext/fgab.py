"""Finitely generated abelian groups presented as cokernels Z^N / M Z^N.

A group is canonicalised through the Smith form of its presentation matrix:
the nonzero invariant factors > 1 give the torsion part, the zero factors the
free part, and the unimodular row transform gives a coordinate map sending any
representative vector to canonical coordinates.

Canonical coordinates depend on the (non-unique) Smith transform, so raw
coordinates of the *same abstract group* computed from *different*
presentations are not comparable; cross-presentation comparison goes through
the marked-group machinery instead.  Recomputing a group from an identical
presentation always reproduces identical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence

from .exactmat import (
    IntMatrix,
    DimensionMismatchError,
    SmithDecomposition,
    snf,
)


class ParentMismatchError(ValueError):
    """Elements belong to different groups."""


@dataclass(frozen=True)
class FgAbelianGroup:
    """Cokernel Z^N / (column lattice of presentation) in canonical form.

    ``smith`` is the presentation's Smith form: its U maps representative
    vectors into canonical coordinates, and the U^-1 it carries
    (``smith.u_inv``) lifts canonical coordinates back to representatives.
    ``ambient_factors`` records, per canonical coordinate of Z^N, the invariant
    factor attached to it: 0 for a free coordinate, 1 for a collapsed one, and
    d > 1 for a torsion coordinate of order d.  It and the other derived
    attributes are computed once, on first use.
    """

    presentation: IntMatrix
    smith: SmithDecomposition

    @property
    def ambient_dim(self) -> int:
        return self.presentation.rows

    @cached_property
    def ambient_factors(self) -> tuple[int, ...]:
        return self.smith.factors()

    @cached_property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.ambient_factors if d > 1)

    @cached_property
    def torsion_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.ambient_factors) if d > 1)

    @cached_property
    def free_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.ambient_factors) if d == 0)

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

    def class_of(self, v: Sequence[int]) -> "GroupElement":
        """Canonical coordinates of the class [v]."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("representative length differs from ambient dimension")
        w = self.smith.u.mul_vec(v)
        tcoords = tuple(w[i] % self.ambient_factors[i] for i in self.torsion_positions)
        fcoords = tuple(w[i] for i in self.free_positions)
        return GroupElement(self, tcoords, fcoords)

    def representative(self, a: "GroupElement") -> tuple[int, ...]:
        """Some vector v in Z^N with class_of(v) == a."""
        if a.parent != self:
            raise ParentMismatchError("element belongs to a different group")
        w = [0] * self.ambient_dim
        for c, i in zip(a.torsion_coords, self.torsion_positions):
            w[i] = c
        for c, i in zip(a.free_coords, self.free_positions):
            w[i] = c
        return self.smith.u_inv.mul_vec(w)


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
    """The group Z^N / (column lattice of m), N = rows of m."""
    return FgAbelianGroup(m, snf(m))


def element_order(a: GroupElement) -> int | None:
    """Least k > 0 with k*a = 0, or None when the order is infinite."""
    if any(a.free_coords):
        return None
    order = 1
    for c, d in zip(a.torsion_coords, a.parent.torsion):
        order = math.lcm(order, d // math.gcd(d, c))
    return order
