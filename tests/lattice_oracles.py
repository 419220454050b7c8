"""Oracles for the package's certificates, each read off a Hermite or Smith
normal form of the whole matrix: column-lattice predicates, integer kernels
and the exact Smith form with unimodular transforms (snf), whose cokernel
(smith_cokernel) the tests hold the package's groups against.  cokernel
takes any presentation through the package's own weak-group reading,
invariants._weak_group."""

from collections.abc import Sequence
from dataclasses import dataclass
from operator import index, mul

from ckext.exactmat import DimensionMismatchError, IntMatrix, hnf_columns
from ckext.fgab import FgAbelianGroup
from ckext.invariants import _weak_group


class NotUnimodularError(ValueError):
    """Matrix is not invertible over the integers."""


@dataclass(frozen=True)
class SmithDecomposition:
    """Transforms with u @ m @ v = d, the inverse u_inv of u, and d diagonal
    with nonnegative entries forming a divisibility chain (zeros trailing).
    Construction certifies u @ u_inv = I; snf certifies the reduction."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix

    def __post_init__(self):
        n, m = self.d.rows, self.d.cols
        shapes = [(t.rows, t.cols) for t in (self.u, self.u_inv, self.v)]
        if shapes != [(n, n), (n, n), (m, m)]:
            raise DimensionMismatchError("transform shapes do not match diagonal")
        for i in range(n):
            for j in range(m):
                if i != j and self.d.entries[i][j] != 0:
                    raise ValueError("d is not diagonal")
        diag = self.diagonal()
        for i, x in enumerate(diag):
            if x < 0:
                raise ValueError("negative invariant factor")
            if i + 1 < len(diag):
                nxt = diag[i + 1]
                if x == 0:
                    if nxt != 0:
                        raise ValueError("zero invariant factor before nonzero one")
                elif nxt % x != 0:
                    raise ValueError("divisibility chain violated")
        if self.u @ self.u_inv != IntMatrix.identity(n):
            raise NotUnimodularError("u does not multiply with u_inv to I")

    def diagonal(self) -> tuple[int, ...]:
        return tuple([self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))])

    def factors(self) -> tuple[int, ...]:
        """The invariant factor of each row of u: the diagonal, then zeros."""
        diag = self.diagonal()
        return diag + (0,) * (self.d.rows - len(diag))


def _certify_reduction(m: IntMatrix, dec: SmithDecomposition) -> None:
    """Raise unless U M Z^k = D Z^k, with U unimodular (U U^-1 = I).

    M V = U^-1 D puts D Z^k inside U M Z^k.  Each row of U M divisible by its
    factor, and zero where the factor is 0, puts U M Z^k inside D Z^k.
    """
    diag = dec.diagonal()  # U^-1 D: column j of U^-1 times d_j, then zero columns
    u_inv_d = tuple([tuple([*map(mul, row, diag)]) + (0,) * (dec.d.cols - len(diag))
                     for row in dec.u_inv.entries])
    if (m @ dec.v).entries != u_inv_d or any(
            x % f if f else x for f, row in zip(dec.factors(), (dec.u @ m).entries) for x in row):
        raise ArithmeticError("Smith transforms do not reduce the matrix")


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms U, V and the inverse of U.

    Pivots are chosen with minimal absolute value to limit entry growth; the
    divisibility chain is enforced by folding any non-divisible remainder back
    into the pivot row before advancing.  A row operation on U is applied to
    U^-1 as the inverse column operation.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    u, v = eye(nr), eye(nc)
    ui_cols = eye(nr)  # U^-1 by columns, so its column operations act on whole lists

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        ui_cols[i], ui_cols[j] = ui_cols[j], ui_cols[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):  # row[dst] += q * row[src]; U^-1: col[src] -= q * col[dst]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        ui_cols[src] = [x - q * y for x, y in zip(ui_cols[src], ui_cols[dst])]

    def add_col(src, dst, q):  # col[dst] += q * col[src], on A and V
        for row in a + v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        ui_cols[i] = [-x for x in ui_cols[i]]

    for t in range(min(nr, nc)):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            # Clear column t below the pivot; remainders become new pivots.
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    add_row(t, i, -q)
                if a[i][t]:
                    swap_rows(t, i)  # remainder in (0, pivot): strictly smaller
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    add_col(t, j, -q)
                if a[t][j]:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # Row and column are clear; force the pivot to divide the rest.
            pivot = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % pivot != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)

    dm = IntMatrix.from_rows(a) if nr else IntMatrix(0, nc, ())
    dec = SmithDecomposition(IntMatrix.from_rows(u), dm, IntMatrix.from_rows(v),
                             IntMatrix.from_columns(ui_cols, rows=nr))
    _certify_reduction(m, dec)
    return dec


def smith_cokernel(m: IntMatrix) -> FgAbelianGroup:
    """Z^N / (column lattice of m) in the coordinates of the Smith form of m,
    less the rows of U and the columns of U^-1 whose factor is 1."""
    smith = snf(m)
    factors = smith.factors()
    keep = [i for i, f in enumerate(factors) if f != 1]
    u, u_inv = smith.u.entries, smith.u_inv.columns()
    return FgAbelianGroup(m, IntMatrix(len(keep), m.rows, tuple([u[i] for i in keep])),
                          IntMatrix.from_columns([u_inv[i] for i in keep], rows=m.rows),
                          tuple([factors[i] for i in keep]))


def cokernel(m: IntMatrix) -> FgAbelianGroup:
    """Z^n / (column lattice of m) for an n x c matrix m, read by
    invariants._weak_group off m made square: a wide m is replaced by
    hnf_columns(m), a basis of the same lattice, a narrow one padded with
    zero columns.  _weak_group first runs the unit reduction L m V = S on
    it, and a left-kernel row y of its residual is negated unless
    y L 1 <= 0, so [1_n] has a free coordinate <= 0 when the free rank is 1."""
    n = m.rows
    narrow = hnf_columns(m) if m.cols > n else m
    square = IntMatrix(n, n, tuple([row + (0,) * (n - narrow.cols) for row in narrow.entries]))
    g = _weak_group(square)[1]
    return FgAbelianGroup(m, g.coords, g.lift, g.factors)


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
