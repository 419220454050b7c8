"""Column-lattice predicates and integer kernels, used by the tests as
oracles for the package's certificates: each is read off a Hermite or Smith
normal form of the whole matrix."""

from collections.abc import Sequence
from operator import index

from ckext.exactmat import DimensionMismatchError, IntMatrix, hnf_columns, snf


def lattice_equal(m1: IntMatrix, m2: IntMatrix) -> bool:
    """Whether two generating sets span the same column lattice."""
    if m1.rows != m2.rows:
        raise DimensionMismatchError("lattices live in different ambient ranks")
    return hnf_columns(m1) == hnf_columns(m2)


def lattice_contains(m: IntMatrix, v: Sequence[int]) -> bool:
    """Whether v lies in the column lattice of m (exact integer solvability)."""
    if len(v) != m.rows:
        raise DimensionMismatchError("vector length differs from ambient rank")
    h = hnf_columns(m)
    resid = [index(x) for x in v]
    for j in range(h.cols):
        r = next(i for i in range(h.rows) if h.entries[i][j])
        q, rem = divmod(resid[r], h.entries[r][j])
        if rem:
            return False
        if q:
            for i in range(r, h.rows):
                resid[i] -= q * h.entries[i][j]
    return not any(resid)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer nullspace {x : m @ x = 0}, as columns.

    Returns a matrix with cols(m) rows and one column per kernel generator
    (zero columns when the kernel is trivial): the zero-factor rows of the U of
    snf(m^T), a basis as U is unimodular and the other rows of U m^T independent.
    """
    dec = snf(m.transpose())
    return IntMatrix.from_columns(
        [row for f, row in zip(dec.factors(), dec.u.entries) if f == 0], rows=m.cols)
