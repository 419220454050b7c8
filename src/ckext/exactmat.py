"""Exact integer matrix algebra.

Dense arbitrary-precision integer matrices with the normal forms and lattice
predicates everything else is built on: Smith normal form with unimodular
transforms, the Smith form modulo d of a matrix whose column lattice holds
d Z^n, a canonical column-style Hermite normal form, Bareiss determinants and
adjugate solves, integer kernels, and column-lattice equality/membership.

All values are immutable; every function is pure.  Matrices are dense.  The
Smith form carries U, U^-1 and V, the witness of the reduction, certified by
exact products; integer kernels are read off the U of the transposed form.
The Bareiss elimination skips one column with no pivot, so on a matrix of
rank n - 1 it names a nonsingular (n-1)-minor and a kernel vector instead of
stopping at det = 0.  The modular form records its row operations modulo d
and replays U and U^-1 only for the rows with a factor, so its entries stay
below d; its caller certifies it.  README.md gives measured sizes and times.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from operator import index, mul


class NotSquareError(ValueError):
    """Operation requires a square matrix."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class NotUnimodularError(ValueError):
    """Matrix is not invertible over the integers."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major.

    A matrix with zero columns represents the zero lattice; zero-row matrices
    only occur as empty transforms (e.g. the V of the Smith form of an N-by-0
    matrix) and never carry lattice meaning.  Entries are type-checked at the
    boundary, by from_rows and from_columns (operator.index); the package
    builds the others from ints.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(map(index, row)) for row in rows)
        ncols = len(data[0]) if data else 0
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def from_columns(columns: Iterable[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple(map(index, c)) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("row count required for a matrix with no columns")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise DimensionMismatchError("column lengths differ")
        data = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return IntMatrix(rows, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries)) or [()] * self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.rows != self.rows:
            raise DimensionMismatchError("row counts differ")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.cols != self.cols:
            raise DimensionMismatchError("column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("shapes differ")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        cols = other.columns()
        data = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.entries)
        return IntMatrix(self.rows, other.cols, data)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


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
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols)))

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
    u_inv_d = tuple(tuple(map(mul, row, diag)) + (0,) * (dec.d.cols - len(diag))
                    for row in dec.u_inv.entries)
    if (m @ dec.v).entries != u_inv_d or any(
            x % f if f else x for f, row in zip(dec.factors(), (dec.u @ m).entries) for x in row):
        raise ArithmeticError("Smith transforms do not reduce the matrix")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def determinant(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    return adjugate_solve(m)[0]


def adjugate_solve(m: IntMatrix, b: Sequence[int] | None = None
                   ) -> tuple[int, tuple[int, ...] | None]:
    """det(m) and adj(m) b = det(m) m^-1 b; the second value is None when b
    is None or m is singular (adjugate_or_kernel)."""
    return adjugate_or_kernel(m, b)[:2]


def adjugate_or_kernel(m: IntMatrix, b: Sequence[int] | None = None
                       ) -> tuple[int, tuple[int, ...] | None,
                                  tuple[int, int, tuple[int, ...]] | None]:
    """det(m), adj(m) b = det(m) m^-1 b, and, for m of rank n - 1, a kernel
    certificate (r, c, v), all by one Bareiss elimination of [m | b].

    After the elimination row i reads a_ii x_i + sum_{j>i} a_ij x_j = c_i,
    and y = delta x, delta the last pivot, is integral by Cramer's rule, so the
    fraction-free back substitution y_i = (delta c_i - sum_{j>i} a_ij y_j) / a_ii
    divides exactly.  The second value is None when b is None or m is singular.
    A row with a zero below the pivot is only rescaled by pivot / prev, which
    is skipped when the two are equal, as they often are on sparse input.

    A column of m with no pivot is skipped, and a second one ends the
    elimination: the rank is below n - 1, and the third value is None.  With
    exactly one skipped column c, the pivots lie in the rows other than the
    one, r, left over, and deleting row r and column c of m leaves a minor M
    with det M = +-delta != 0.  Setting v_c = delta and back-substituting the
    pivot rows gives v with m v = 0: off c, v is -delta M^-1 times column c
    of m without row r, integral by Cramer's rule.
    """
    if m.rows != m.cols:
        raise NotSquareError("determinant of a non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    if b is not None:
        if len(b) != n:
            raise DimensionMismatchError("vector length differs from row count")
        for row, x in zip(a, b):
            row.append(index(x))
    order = list(range(n))
    sign = prev = 1
    r, skipped = 0, None
    for k in range(n):
        if a[r][k] == 0:
            i = next((i for i in range(r + 1, n) if a[i][k]), None)
            if i is None:
                if skipped is not None:
                    return 0, None, None
                skipped = k
                continue
            a[r], a[i] = a[i], a[r]
            order[r], order[i] = order[i], order[r]
            sign = -sign
        pivot, row_r = a[r][k], a[r]
        for i in range(r + 1, n):
            row_i, c = a[i], a[i][k]
            if c:
                row_i[k + 1:] = [(x * pivot - c * y) // prev
                                 for x, y in zip(row_i[k + 1:], row_r[k + 1:])]
                row_i[k] = 0
            elif pivot != prev:
                row_i[k + 1:] = [x * pivot // prev for x in row_i[k + 1:]]
        prev = pivot
        r += 1
    if skipped is not None:
        v = [0] * n
        v[skipped] = prev
        for i in range(n - 2, -1, -1):
            row, p = a[i], i + (i >= skipped)
            v[p] = -sum(map(mul, row[p + 1:n], v[p + 1:])) // row[p]
        return 0, None, (order[n - 1], skipped, tuple(v))
    if b is None:
        return sign * prev, None, None
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (prev * row[n] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
    return sign * prev, tuple(sign * v for v in y), None


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


def _smith_mod(m: IntMatrix, d: int) -> tuple[tuple[int, ...], list[list[int]],
                                              list[list[int]]]:
    """Smith form over Z/d of an n x k matrix m, k >= n, for d > 0 with
    d Z^n inside m Z^n (d = |det m| for a nonsingular square m).

    Returns the factor f_i of each row, a divisibility chain of divisors of d,
    and, for the rows with f_i > 1, row i of U and column i of U^-1 (entries in
    [0, d)): v -> ((U v)_i mod f_i) maps Z^n / m Z^n onto the sum of the Z/f_i,
    and U^-1 e_i maps to e_i.  The caller certifies the result.

    Z^n / m Z^n is (Z/d)^n / m (Z/d)^n, so row operations (2 x 2, determinant
    1) are recorded, and column operations, which keep the column module, are
    not.  Row i is finished when its column is p e_i: scaling that column to
    f_i = gcd(p, d) keeps the module, and clearing row i to the right touches
    only row i, so it is dropped.  U and U^-1 are replayed from the record for
    the rows that carry a factor, at O(1) a step.
    """
    n, k = m.rows, m.cols
    a = [[x % d for x in row] for row in m.entries]
    ops = []  # (t, i, ((p, q), (r, s))): rows (t, i) <- that matrix times rows (t, i)

    def row_op(t, i, e):  # on columns t.., where rows t and i are zero to the left
        (p, q), (r, s) = e
        x, y = a[t][t:], a[i][t:]
        if (p, q) != (1, 0):
            a[t][t:] = [(p * xv + q * yv) % d for xv, yv in zip(x, y)]
        a[i][t:] = [(r * xv + s * yv) % d for xv, yv in zip(x, y)]
        ops.append((t, i, e))

    factors = []
    for t in range(n):
        while True:
            for i in range(t + 1, n):  # clear column t below the pivot
                p, x = a[t][t], a[i][t]
                if x == 0:
                    continue
                if p and x % p == 0:  # eliminate plainly: xgcd(p, p) is a row swap
                    row_op(t, i, ((1, 0), (-(x // p), 1)))
                else:
                    g, c, e = _xgcd(p, x)
                    row_op(t, i, ((c, e), (-(x // g), p // g)))
            f = a[t][t] = _xgcd(a[t][t], d)[0]  # column t is p e_t: scale it to gcd(p, d)
            if f == 1:
                break
            j = next((j for j in range(t + 1, k) if a[t][j] % f), None)
            if j is not None:  # column operation giving the pivot gcd(f, a_tj) < f
                g, c, e = _xgcd(f, a[t][j])
                q, r = a[t][j] // g, f // g
                for row in a[t:]:
                    row[t], row[j] = (c * row[t] + e * row[j]) % d, (q * row[t] - r * row[j]) % d
                continue
            bad = next((i for i in range(t + 1, n) if any(x % f for x in a[i][t + 1:])), None)
            if bad is None:
                break
            row_op(t, bad, ((1, 1), (0, 1)))  # the pivot must divide the rest
        factors.append(f)

    u_rows, u_inv_cols = [], []
    for c in (c for c, f in enumerate(factors) if f > 1):
        v = [int(j == c) for j in range(n)]  # e_c^T E_last ... E_first
        w = v[:]                             # E_first^-1 ... E_last^-1 e_c
        for t, i, ((p, q), (r, s)) in reversed(ops):
            v[t], v[i] = (v[t] * p + v[i] * r) % d, (v[t] * q + v[i] * s) % d
            w[t], w[i] = (s * w[t] - q * w[i]) % d, (p * w[i] - r * w[t]) % d
        u_rows.append(v)
        u_inv_cols.append(w)
    return tuple(factors), u_rows, u_inv_cols


def hnf_columns(m: IntMatrix) -> IntMatrix:
    """Unique column-style Hermite normal form basis of the column lattice.

    Zero columns are removed, pivots (the topmost nonzero entry of each
    column) are positive and strictly descend row-wise left to right, and the
    entries to the left of each pivot are reduced into [0, pivot).  Two
    matrices span the same column lattice iff their forms are equal.
    """
    nr = m.rows
    cols = [list(c) for c in m.columns()]
    c = 0
    for r in range(nr):
        if c == len(cols):
            break
        j0 = next((j for j in range(c, len(cols)) if cols[j][r]), None)
        if j0 is None:
            continue
        cols[c], cols[j0] = cols[j0], cols[c]
        for j in range(c + 1, len(cols)):
            if cols[j][r] == 0:
                continue
            aa, bb = cols[c][r], cols[j][r]
            g, x, y = _xgcd(aa, bb)
            ag, bg = aa // g, bb // g
            colc, colj = cols[c], cols[j]
            for i in range(r, nr):
                ci, cj = colc[i], colj[i]
                colc[i] = x * ci + y * cj
                colj[i] = ag * cj - bg * ci
        if cols[c][r] < 0:
            cols[c] = [-x for x in cols[c]]
        pivot = cols[c][r]
        for j in range(c):
            q = cols[j][r] // pivot
            if q:
                colj, colc = cols[j], cols[c]
                for i in range(r, nr):
                    colj[i] -= q * colc[i]
        c += 1
    return IntMatrix.from_columns(cols[:c], rows=nr)


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

