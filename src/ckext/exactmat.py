"""Exact integer matrix algebra.

Dense arbitrary-precision integer matrices with the eliminations everything
else is built on: the elimination of a square matrix on +-1 pivots, the
Bareiss pass that gives determinants, adjugate solves and kernel
certificates, the Smith form modulo d of a matrix whose column lattice
holds d Z^n (the package's only Smith form), and a canonical column-style
Hermite normal form.

All values are immutable; every function is pure.  The unit reduction
records its row transvections and folds its column operations into one row,
sigma = 1^T V, so a 0-1 matrix's I - A is left as a small residual with the
same cokernel and determinant up to sign.  The Bareiss pass skips every
column with no pivot, so on a matrix of rank n - r it names a nonsingular
(n-r)-minor and r kernel vectors.  The modular form keeps every entry below
d (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2); its
caller certifies it."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from operator import index, mul


class NotSquareError(ValueError):
    """Operation requires a square matrix."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major.

    A matrix with zero columns represents the zero lattice; zero-row matrices
    only occur as empty coordinate maps and minors and never carry lattice
    meaning.  Entries are type-checked at the boundary, by from_rows and
    from_columns (operator.index); the package builds the others from ints.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        if {*map(len, self.entries)} - {self.cols}:
            raise ValueError("ragged rows")

    # The helpers below, the adjugate solve, _unit_reduction and
    # fgab.modular_cokernel build their tuples from lists, not generators:
    # tuple() of a generator starts from a 10-tuple and resizes it, so a
    # shorter tuple, once freed, waits on CPython's free list for its own
    # length (up to 2000 each), which generator-built tuples never draw on.
    # The k x k residuals make such tuples of every length below 20; built
    # from generators they raised dense-compute peak RSS by about 9%.
    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = tuple([tuple([*map(index, row)]) for row in rows])
        ncols = len(data[0]) if data else 0
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def from_columns(columns: Iterable[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple([*map(index, c)]) for c in columns]
        if rows is None:
            if not cols:
                raise ValueError("row count required for a matrix with no columns")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise DimensionMismatchError("column lengths differ")
        data = tuple([tuple([c[i] for c in cols]) for i in range(rows)])
        return IntMatrix(rows, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([row[j] for row in self.entries])

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
        data = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries])
        return IntMatrix(self.rows, other.cols, data)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length differs from column count")
        return tuple([sum(map(mul, row, v)) for row in self.entries])


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
                                  tuple[tuple[int, ...], tuple[int, ...],
                                        tuple[tuple[int, ...], ...]]]:
    """det(m), adj(m) b = det(m) m^-1 b, and a kernel certificate (R, C, Y),
    all by one Bareiss elimination of [m | b].

    After the elimination row i reads a_ii x_i + sum_{j>i} a_ij x_j = c_i,
    and y = delta x, delta the last pivot, is integral by Cramer's rule, so the
    fraction-free back substitution y_i = (delta c_i - sum_{j>i} a_ij y_j) / a_ii
    divides exactly.  The second value is None when b is None or m is singular.
    A row with a zero below the pivot is only rescaled by pivot / prev, which
    is skipped when the two are equal, as they often are on sparse input.

    A column with no pivot is a rational combination of the pivot columns
    before it, and is skipped.  With r skipped columns C, m has rank n - r,
    and deleting the r rows R left over and the columns C leaves a minor M
    with det M = +-delta != 0.  For each c in C, v_c = delta, v = 0 on the
    rest of C and back substitution on the pivot rows give v in Y with
    m v = 0, integral by Cramer's rule.  R, C and Y are empty for a
    nonsingular m.
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
    r, skipped, pivots = 0, [], []
    for k in range(n):
        if a[r][k] == 0:
            i = next((i for i in range(r + 1, n) if a[i][k]), None)
            if i is None:
                skipped.append(k)
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
        pivots.append(k)
        r += 1
    if skipped:
        kernel = []
        for c in skipped:
            v = [0] * n
            v[c] = prev
            for row, p in zip(reversed(a[:r]), reversed(pivots)):
                v[p] = -sum(map(mul, row[p + 1:n], v[p + 1:])) // row[p]
            kernel.append(tuple(v))
        return 0, None, (tuple(order[r:]), tuple(skipped), tuple(kernel))
    if b is None:
        return sign * prev, None, ((), (), ())
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (prev * row[n] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
    return sign * prev, tuple([sign * v for v in y]), ((), (), ())


def _spread(n: int, at: Sequence[int], values: Iterable[int]) -> list[int]:
    """The length-n list with `values` at the positions `at`, zero elsewhere."""
    out = [0] * n
    for i, v in zip(at, values):
        out[i] = v
    return out


@dataclass(frozen=True)
class _UnitReduction:
    """L M V = S for a square M, from _unit_reduction: L is the product of the
    recorded row transvections, V = C_1 ... C_r the implied column operations,
    and S has the pivot e_k at (p_k, c_k) for each pivot, the residual on the
    rows and columns left, and zeros elsewhere.  L and V have determinant 1, so
    det M = sign det(residual) and Z^N / M Z^N = Z^k / residual Z^k.

    With the pivot rows and columns first, in pivot order, L is unit lower
    triangular and V unit upper triangular: L^-1 leaves a vector's entries
    on the residual's rows as they are, and so fixes a vector that is zero
    at the pivot rows, and V leaves those on the residual's columns.
    """

    residual: IntMatrix
    rows: tuple[int, ...]                      # the rows of M the residual keeps
    cols: tuple[int, ...]                      # and its columns
    pivots: tuple[tuple[int, int, int], ...]   # (p_k, c_k, e_k) in pivot order
    pivot_rows: tuple[tuple[int, ...], ...]    # row p_k of L M
    record: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    # (p_k, (i, ...), (f, ...)) in pivot order: row i -= f row p_k for each i
    sigma: tuple[int, ...]                     # 1^T V
    sign: int                                  # det M / det(residual)

    def __post_init__(self):
        if any(e not in (1, -1) for _, _, e in self.pivots):
            raise ArithmeticError("a pivot of the unit reduction is not +-1")

    def certify(self, m: IntMatrix) -> None:
        """Raise unless 1^T L m = 1^T R, R the L m that the reduction records:
        row p_k is rho_k, and a row of the residual is the residual's row on
        its columns and zero in the pivot columns.  A residual entry off by
        any amount changes one column sum of R but not 1^T L m."""
        sums = [sum(col) for col in zip(*self.pivot_rows)] or [0] * m.cols
        for j, s in zip(self.cols, map(sum, zip(*self.residual.entries))):
            sums[j] += s
        ones = self._times_l([1] * m.rows)
        if [sum(map(mul, ones, col)) for col in m.columns()] != sums:
            raise ArithmeticError("the unit reduction does not reduce the matrix")

    def _times_l(self, r: list[int]) -> tuple[int, ...]:
        """r L, by the record replayed in reverse: r E for E, row i -= f row
        p, subtracts f r_i from r_p, and the transvections of one pivot
        change r_p only."""
        for p, rows, fs in reversed(self.record):
            r[p] -= sum(map(mul, fs, map(r.__getitem__, rows)))
        return tuple(r)

    def carry_row(self, live: Sequence[int], scale: int = 0) -> tuple[int, ...]:
        """r L for the row r that is `live` on the residual's rows and
        scale e_k sigma_{c_k} at p_k: r L M = r S V^-1, and the entry at p_k is
        what makes r S agree with scale sigma in column c_k."""
        r = _spread(len(self.sigma), self.rows, live)
        if scale:
            for p, c, e in self.pivots:
                r[p] = scale * e * self.sigma[c]
        return self._times_l(r)

    def carry_lift(self, live: Sequence[int]) -> tuple[int, ...]:
        """L^-1 c for the column c that is `live` on the residual's rows and
        zero at the pivot rows, which is c itself."""
        return tuple(_spread(len(self.sigma), self.rows, live))

    def carry_solution(self, live: Sequence[int]) -> tuple[int, ...]:
        """V c for the column c that is `live` on the residual's columns and
        zero at the pivot columns: C_k c = c - e_k (rho_k c) e_{c_k}, rho_k row
        p_k of L M off column c_k, applied for k = r, ..., 1.  M V c = 0 when
        the residual kills `live`."""
        x = _spread(len(self.sigma), self.cols, live)
        for (_, c, e), rho in zip(reversed(self.pivots), reversed(self.pivot_rows)):
            x[c] = -e * sum(map(mul, rho, x))  # x_c is still 0 here
        return tuple(x)


def _unit_reduction(m: IntMatrix) -> _UnitReduction:
    """Eliminate a square m on +-1 pivots until none is left.

    The pivot is the first +-1 of the first live row that has one; row
    transvections clear its column in the other live rows, so the rows
    already pivoted are zero in it.  The column operations that would clear
    the pivot row then touch that row only; they are not applied but folded
    into sigma = 1^T V, C_k = I - e_k e_{c_k} rho_k^T with rho_k the pivot row
    off c_k, so sigma C_k = sigma - e_k sigma_{c_k} rho_k, which leaves
    sigma_{c_k} as it is.  A pivoted column is zero in every live row, so it
    is deleted from them, and the live rows hold the live columns only.
    Havas, Holt and Rees (Linear Algebra Appl. 192, 1993) use this as the
    first phase of an integer Smith form.
    """
    if m.rows != m.cols:
        raise NotSquareError("unit reduction of a non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    live, cols, pivots, pivot_rows, record = list(range(n)), list(range(n)), [], [], []
    sigma, live_sigma = [1] * n, [1] * n  # sigma on every column, and on the live ones
    while True:
        for p in live:
            row = a[p]
            c = min((row.index(x) for x in (1, -1) if x in row), default=None)
            if c is not None:
                break
        else:
            break
        e = row[c]
        live.remove(p)
        support = [(j, y) for j, y in enumerate(row) if y]
        hit, fs = [], []
        for i in live:
            r = a[i]
            f = r[c] * e
            if f:
                for j, y in support:
                    r[j] -= f * y
                hit.append(i)
                fs.append(f)
            del r[c]
        record.append((p, tuple(hit), tuple(fs)))
        rho = _spread(n, cols, row)
        s = live_sigma[c]
        if s:
            live_sigma = [x - s * e * y for x, y in zip(live_sigma, row)]
        del live_sigma[c]
        c = cols.pop(c)
        sigma[c] = s
        pivots.append((p, c, e))
        pivot_rows.append(tuple(rho))
    for j, x in zip(cols, live_sigma):
        sigma[j] = x
    # det S: the product of the pivots times the sign of the permutation
    # p_k -> c_k, rows[i] -> cols[i], one transposition per swap that sorts it
    perm, sign = [0] * n, 1
    for i, j in zip(live, cols):
        perm[i] = j
    for p, c, e in pivots:
        perm[p] = c
        sign *= e
    for i in range(n):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return _UnitReduction(
        IntMatrix(len(live), len(cols), tuple([tuple(a[i]) for i in live])), tuple(live),
        tuple(cols), tuple(pivots), tuple(pivot_rows), tuple(record), tuple(sigma), sign)


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
