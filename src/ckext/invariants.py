"""Extension-group invariants of Cuntz-Krieger algebras.

Everything here is exact integer lattice arithmetic over a validated square
0-1 matrix A (irreducible, not a permutation, N > 1):

* the weak extension group, the Bowen-Franks group Z^N / (I - A) Z^N;
* the strong extension group Z^N / (I - A^) Z^N, where A^ = A + R_1 - A R_1
  and R_n is the matrix whose only nonzero row is the all-ones row n;
  I - A^_n is formed from the columns of I - A, with no matrix product;
* the canonical class iota(m), the class of (I - A) k for any k with
  coordinate sum m (independent of the choice of k);
* the Toeplitz extension classes: -[1_N] in the weak group and
  -iota(1) - [1_N] in the strong group, together with the per-column index
  vector they arise from;
* verifiers by certificate for the lattice identity Im(I-A)_0 = (I - A^_n) Z^N
  and for the six-node exact sequence tying the two groups together.  Five
  nodes follow from I - A^ = (I - A)(I - R_1), checked column by column, and
  the identity for every n from the one for n = 1, which is two products
  taken as differences and prefix sums of columns; all of it is O(N^2), and
  only node (4) of a singular I - A takes a Hermite form (proofs in
  ExtInvariantReport.exact_sequence and verify_im0_identity).

invariants_report computes all of them; exts and the single-invariant helpers
(iota_hat, toeplitz_strong, hat_q, iota_kernel_generator) are views on it.
One Bareiss elimination of [(I - A)^T | 1] gives det = det(I - A) and the
integral row w = 1^T adj(I - A), checked by w (I - A) = det 1^T.  A singular
I - A gets the Smith forms of I - A and I - A^.  For a nonsingular one the
weak group is cyclic with coordinate row w mod D, D = |det|, when
gcd(w, D) = 1, and comes from the Smith form of I - A modulo D otherwise
(fgab.finite_cokernel): coordinate rows K_i, factors d_i > 1 and generators
g_i, i = 1..t, with K_i g_j = [i = j] (mod d_i).  The paper's extension
formula then gives the strong group:

    Z^N / (I - A^) Z^N  =  Z^{1+t} / <d_i e_i - s_i e_0 : i = 1..t>,
    s_i = d_i (w g_i) / det,

with e_0 standing for iota(1) = (I - A) e_1 and e_i for g_i.  (I - A^) Z^N is
(I - A) Z^N_0, Z^N_0 the sum-zero vectors, and it is the kernel of
v -> (w v, [v]_w) into Z + weak group: [v]_w = 0 gives v = (I - A) x with x
integral, and then w v = det 1^T x.  The image is spanned by (det, 0), the
image of iota(1), and (w g_i, e_i), the image of g_i.  A combination
a_0 e_0 + sum a_i e_i maps to 0 iff a_i = d_i b_i and
a_0 det + sum b_i d_i (w g_i) = 0, so the relations are spanned by the
d_i e_i - s_i e_0; s_i = 1^T x_i for d_i g_i = (I - A) x_i is integral.  A
vector v is sum_i (K_i v) g_i plus (I - A) x with 1^T x = Phi_0 v, where
Phi_0 = (w - sum_i (w g_i) K_i) / det, so Phi = (Phi_0; K_1; ...; K_t) is the
class map onto the presentation, and Psi = ((I - A) e_1, g_1, ..., g_t) lifts
it.  Both divisions by det are exact, and raise if not.  The Smith form
U_R R V_R = D_R of the (1+t) x t relation matrix R makes it canonical: the
class map is U_R Phi, the lift Psi U_R^-1, checked by fgab.certified_group.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .exactmat import IntMatrix, adjugate_solve, hnf_columns, snf
from .exactmat import determinant as _determinant
from .fgab import (FgAbelianGroup, GroupElement, ParentMismatchError, certified_group,
                   cokernel, element_order, finite_cokernel)


class ValidationError(ValueError):
    """A raw matrix failed validation; the message names the condition."""


class NotZeroOneError(ValidationError):
    pass


class TooSmallError(ValidationError):
    pass


class IsPermutationError(ValidationError):
    pass


class NotIrreducibleError(ValidationError):
    pass


class IndexOutOfRangeError(IndexError):
    """A 1-based row index fell outside 1..N."""


@dataclass(frozen=True)
class ZeroOneMatrix:
    """Square 0-1 matrix; build through validate() to enforce irreducibility."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries do not form an n-by-n matrix")
        for row in self.entries:
            if not {*row} <= {0, 1}:
                x = next(x for x in row if x not in (0, 1))
                raise NotZeroOneError(f"NotZeroOne: entry {x} is not 0 or 1")
        if self.n <= 1:
            raise TooSmallError("TooSmall: matrix size must exceed 1")

    def as_int_matrix(self) -> IntMatrix:
        return IntMatrix(self.n, self.n, self.entries)


def _strongly_connected(entries, n) -> bool:
    """Whether the digraph i -> j iff entries[i][j] = 1 is strongly connected.

    Linear-time check: every vertex reachable from vertex 0 along edges and
    along reversed edges.
    """
    def reachable(forward):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                edge = entries[i][j] if forward else entries[j][i]
                if edge and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return all(seen)

    return reachable(True) and reachable(False)


def _integer_row(row, i: int) -> tuple[int, ...]:
    """Row i (1-based) as ints; a non-integer entry is named by position."""
    try:
        return tuple(map(operator.index, row))
    except TypeError:
        return tuple(_integer_entry(x, i, j) for j, x in enumerate(row, start=1))


def _integer_entry(x, i: int, j: int) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"NotInteger: entry ({i}, {j}) = {x!r} is not an integer") from None


def validate(raw, *, force: bool = False) -> ZeroOneMatrix:
    """Validate a raw square integer matrix as a Cuntz-Krieger matrix.

    Checks integer entries in {0, 1}, N > 1, irreducibility (strongly connected
    digraph) and non-permutation.  With force=True the last two checks are
    skipped: the lattice formulas stay well defined for such matrices, but
    the operator-algebra meaning of the results is not covered.
    """
    rows = [_integer_row(row, i) for i, row in enumerate(raw, start=1)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValidationError("NotSquare: row lengths differ from row count")
    a = ZeroOneMatrix(n, tuple(rows))
    if not force:
        if all(sum(row) == 1 for row in a.entries) and \
                all(sum(a.entries[i][j] for i in range(n)) == 1 for j in range(n)):
            raise IsPermutationError("IsPermutation: matrix is a permutation matrix")
        if not _strongly_connected(a.entries, n):
            raise NotIrreducibleError("NotIrreducible: digraph is not strongly connected")
    return a


def transpose(a: ZeroOneMatrix) -> ZeroOneMatrix:
    return ZeroOneMatrix(a.n, tuple(tuple(a.entries[i][j] for i in range(a.n))
                                    for j in range(a.n)))


def _identity_minus(a: ZeroOneMatrix) -> IntMatrix:
    """I - A, straight from the entries of A."""
    rows = []
    for i, row in enumerate(a.entries):
        r = list(map(operator.neg, row))
        r[i] += 1
        rows.append(tuple(r))
    return IntMatrix(a.n, a.n, tuple(rows))


def _i_minus_hat(ima: IntMatrix, n: int) -> IntMatrix:
    """I - A^_n from ima = I - A: column j is column j minus column n of I - A.

    A^_n = A + R_n - A R_n gives I - A^_n = (I - A)(I - R_n), and
    (I - R_n) e_j = e_j - e_n, so column n is zero.
    """
    c = n - 1
    return IntMatrix(ima.rows, ima.cols,
                     tuple(tuple(x - row[c] for x in row) for row in ima.entries))


def _minus_first(cols: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The columns of I - A^_1 from the columns of I - A (see _i_minus_hat)."""
    return [tuple(map(operator.sub, c, cols[0])) for c in cols]


def a_hat(a: ZeroOneMatrix, n: int) -> IntMatrix:
    """The matrix A^_n = A + R_n - A R_n, where R_n is the matrix whose only
    nonzero row is the all-ones row n (1-based).

    The column lattice of I - A^_n is the image of the sum-zero sublattice
    under I - A.
    """
    if not 1 <= n <= a.n:
        raise IndexOutOfRangeError(f"IndexOutOfRange: row {n} not in 1..{a.n}")
    return IntMatrix.identity(a.n) - _i_minus_hat(_identity_minus(a), n)


def _weak_group(ima: IntMatrix) -> tuple[int, tuple[int, ...] | None, FgAbelianGroup]:
    """det = det(ima), w = 1^T adj(ima) (None when det = 0) and Z^N / ima Z^N,
    from w modulo |det| when det is nonzero (fgab.finite_cokernel)."""
    det, w = adjugate_solve(ima.transpose(), (1,) * ima.rows)
    return det, w, finite_cokernel(ima, det, w) if det else cokernel(ima)


def extw(a: ZeroOneMatrix) -> FgAbelianGroup:
    """Weak extension group: the Bowen-Franks group Z^N / (I - A) Z^N."""
    return _weak_group(_identity_minus(a))[2]


def exts(a: ZeroOneMatrix) -> FgAbelianGroup:
    """Strong extension group: Z^N / (I - A^) Z^N with A^ = A + R_1 - A R_1."""
    return invariants_report(a).exts_group


def _exact_quotient(x: int, det: int) -> int:
    q, r = divmod(x, det)
    if r:
        raise ArithmeticError(f"{x} is not divisible by det(I - A) = {det}")
    return q


def _strong_from_weak(ima: IntMatrix, det: int, w: tuple[int, ...],
                      weak: FgAbelianGroup) -> FgAbelianGroup:
    """Z^N / (I - A^) Z^N for a nonsingular ima = I - A, from det = det(ima),
    w = 1^T adj(ima) and the weak group modulo |det| (module docstring)."""
    if any(sum(map(operator.mul, w, col)) != det for col in zip(*ima.entries)):
        raise ArithmeticError("w (I - A) is not det(I - A) times the all-ones row")
    factors, k_rows, gens = weak.factors, weak.coords.entries, weak.lift.columns()
    wg = [sum(map(operator.mul, w, g)) for g in gens]
    s = [_exact_quotient(d * x, det) for d, x in zip(factors, wg)]
    phi0 = list(w)
    for x, k in zip(wg, k_rows):
        phi0 = [y - x * z for y, z in zip(phi0, k)]
    phi = IntMatrix(1 + len(gens), ima.cols,
                    (tuple(_exact_quotient(y, det) for y in phi0),) + k_rows)
    rel = snf(IntMatrix.from_rows([[-x for x in s]] + [[d * (i == j) for j in range(len(s))]
                                                       for i, d in enumerate(factors)]))
    psi = IntMatrix.from_columns([ima.column(0)] + gens, rows=ima.rows)
    return certified_group(_i_minus_hat(ima, 1), rel.u @ phi, psi @ rel.u_inv,
                           rel.factors())


def iota_hat(a: ZeroOneMatrix, m: int) -> GroupElement:
    """The class of (I - A) k in the strong group, for any k with coordinate
    sum m: m times iota(1).

    The class does not depend on which k is used, since any two such choices
    differ by an element of the sum-zero sublattice.
    """
    return invariants_report(a).iota_one.scale(m)


def toeplitz_strong(a: ZeroOneMatrix) -> GroupElement:
    """Class of the Toeplitz extension in the strong group: -iota(1) - [1_N]."""
    return invariants_report(a).toeplitz_strong


def weak_pair(a: ZeroOneMatrix) -> tuple[FgAbelianGroup, GroupElement]:
    """The weak group and its Toeplitz class."""
    group = extw(a)
    return group, group.class_of((1,) * a.n).negate()


def toeplitz_weak(a: ZeroOneMatrix) -> GroupElement:
    """Class of the Toeplitz extension in the weak group: -[1_N]."""
    return weak_pair(a)[1]


def toeplitz_d_vector(a: ZeroOneMatrix, m: int) -> tuple[int, ...]:
    """Index vector of the Toeplitz extension against the m-th comparison
    extension (m is 1-based): d_i = A(i, m) - [i = m] - 1, that is

        d_i = -1 if i = m and A(i, m) = 1      d_i = 0  if i != m and A(i, m) = 1
        d_i = -2 if i = m and A(i, m) = 0      d_i = -1 if i != m and A(i, m) = 0

    It equals -(I - A) v(m) - 1_N for the m-th unit column v(m), so its class
    in the strong group is the Toeplitz class for every m.
    """
    if not 1 <= m <= a.n:
        raise IndexOutOfRangeError(f"IndexOutOfRange: column {m} not in 1..{a.n}")
    col = m - 1
    return tuple(row[col] - int(i == col) - 1 for i, row in enumerate(a.entries))


def hat_q(a: ZeroOneMatrix, x: GroupElement) -> GroupElement:
    """Quotient map from the strong group onto the weak group; see
    ExtInvariantReport.hat_q."""
    return invariants_report(a).hat_q(x)


def determinant(a: ZeroOneMatrix) -> int:
    """det(I - A); nonzero iff the weak extension group is finite."""
    return _determinant(_identity_minus(a))


def iota_kernel_generator(a: ZeroOneMatrix) -> int:
    """Nonnegative generator g of {sum of coordinates of l : (I - A) l = 0}.

    The kernel of iota is g Z: g is the order of iota(1), 0 if iota is injective.
    """
    return invariants_report(a).iota_kernel_generator


def verify_im0_identity(a: ZeroOneMatrix) -> bool:
    """Check Im(I - A)_0 = (I - A^_n) Z^N for every n in 1..N.

    Two exact products decide n = 1.  Im(I - A)_0 is spanned by the columns of
    im0 = (I - A) P, P with columns e_i - e_{i+1}, i < N.  (I - R_1) fixes
    sum-zero vectors, so F_1 P = im0 for F_1 = I - A^_1 = (I - A)(I - R_1);
    and (I - R_1) e_j = e_j - e_1 = -(e_1 - e_2) - ... - (e_{j-1} - e_j), so
    im0 Q = F_1 for Q with column j equal to -(e_1 + ... + e_{j-1}).  Each
    column lattice lies in the other.  Both products are taken column by
    column, as differences and prefix sums, since P and Q have entries 0, +-1
    in that pattern.  The other n follow with no form and no product.
    R_n R_m = R_n, as the all-ones row of R_n sums the single nonzero row of
    R_m, so (I - R_n)(I - R_m) = I - R_m.  With F_n = (I - A)(I - R_n), that
    gives F_n = F_1 (I - R_n) and F_1 = F_n (I - R_1).
    """
    return _im0_identity(_identity_minus(a))


def _im0_identity(ima: IntMatrix) -> bool:
    """verify_im0_identity for ima = I - A."""
    cols = ima.columns()
    f1 = _minus_first(cols)
    im0 = [tuple(map(operator.sub, p, q)) for p, q in zip(cols, cols[1:])]
    f1_p = [tuple(map(operator.sub, p, q)) for p, q in zip(f1, f1[1:])]
    im0_q = [(0,) * ima.rows]
    for c in im0:
        im0_q.append(tuple(map(operator.sub, im0_q[-1], c)))
    return f1_p == im0 and im0_q == f1


@dataclass(frozen=True)
class ExactSequenceReport:
    """Verdicts for the six nodes of the long exact sequence

        0 -> Z -> Ker(I-A^) -> Ker(I-A) -> Z -> strong group -> weak group -> 0

    together with g, Im(s) = g Z: 0 when det(I - A) != 0, else read off the
    Hermite form of (I-A; 1^T).
    """

    start_injects: bool
    exact_at_kernel_hat: bool
    exact_at_kernel: bool
    exact_at_integers: bool
    exact_at_strong_group: bool
    quotient_surjective: bool
    kernel_sum_generator: int

    def all_passed(self) -> bool:
        return (self.start_injects and self.exact_at_kernel_hat
                and self.exact_at_kernel and self.exact_at_integers
                and self.exact_at_strong_group and self.quotient_surjective)


def verify_exact_sequence(a: ZeroOneMatrix) -> ExactSequenceReport:
    """Verify each node of the long exact sequence; see
    ExtInvariantReport.exact_sequence."""
    return invariants_report(a).exact_sequence()


@dataclass(frozen=True)
class ExtInvariantReport:
    """All extension-group invariants of one matrix."""

    matrix: ZeroOneMatrix
    extw_group: FgAbelianGroup
    exts_group: FgAbelianGroup
    toeplitz_weak: GroupElement
    toeplitz_strong: GroupElement
    iota_one: GroupElement
    det_i_minus_a: int
    iota_kernel_generator: int
    i_minus_a: IntMatrix = field(repr=False, compare=False)  # I - A, for the verifiers

    def __post_init__(self):
        if self.toeplitz_weak.parent != self.extw_group:
            raise ParentMismatchError("weak Toeplitz class outside the weak group")
        if self.toeplitz_strong.parent != self.exts_group:
            raise ParentMismatchError("strong Toeplitz class outside the strong group")
        if self.iota_one.parent != self.exts_group:
            raise ParentMismatchError("iota(1) outside the strong group")
        if self.iota_kernel_generator < 0:
            raise ValueError("kernel generator must be nonnegative")

    def im0_identity(self) -> bool:
        """verify_im0_identity, on the report's I - A."""
        return _im0_identity(self.i_minus_a)

    def hat_q(self, x: GroupElement) -> GroupElement:
        """The quotient map from the strong group onto the weak group.

        Takes any representative of x and reinterprets its class modulo the
        larger lattice (I - A) Z^N; well defined because every column of
        I - A^ is a difference of columns of I - A.
        """
        return self.extw_group.class_of(self.exts_group.representative(x))

    def exact_sequence(self) -> ExactSequenceReport:
        """Verify each node of the long exact sequence by certificate.

        The maps are i_1(n) = n e_1, j = J = I - R_1 and s(l) = sum l_i.  J e_j
        is e_j - e_1, so j(l) = (-sum_{i>=2} l_i, l_2, ..., l_N): J e_1 = 0,
        Ker J = Z e_1, Im J = Ker s, and J y = y - s(y) e_1, so J^2 = J.  The
        strong presentation F is checked to equal (I - A) J column by column:
        column j of (I - A) J is column j minus column 1 of I - A, and column 1
        is zero.  Each node then follows:

        (1) F e_1 = (I - A) J e_1 = 0, so i_1 injects Z into Ker F;
        (2) Ker j within Ker F is Ker J, which is Z e_1 = Im(i_1) by (1);
        (3) x in Ker F gives J x in Ker(I - A), with s(J x) = 0; conversely y
            in Ker(I - A) with s(y) = 0 is J y, and F y = (I - A) y = 0;
        (5) (I - A) e_j = (I - A)(J e_j + e_1) = F e_j + (I - A) e_1, so
            F Z^N + Z (I - A) e_1 = (I - A) Z^N: Ker(q^) = Im(iota);
        (6) F Z^N = (I - A) J Z^N lies in (I - A) Z^N: q^ is well defined
            and onto.

        (4) Im(s) = Ker(iota) is computed independently and must agree with
        the order of iota(1) and with the report's g.  When the report's
        Bareiss determinant is nonzero, Ker(I - A) = 0 and Im(s) = 0.
        Otherwise the vectors ((I - A) l, s(l)) with top N entries zero are
        0 (+) Im(s), spanned by the Hermite column of (I - A; 1^T) pivoted in
        the last row, if any.
        """
        n, ima = self.matrix.n, self.i_minus_a
        factorises = self.exts_group.presentation.columns() == _minus_first(ima.columns())
        im_s = 0
        if not self.det_i_minus_a:
            h = hnf_columns(ima.vstack(IntMatrix.from_rows([(1,) * n])))
            last = h.column(h.cols - 1)
            im_s = 0 if any(last[:n]) else last[n]
        return ExactSequenceReport(
            start_injects=factorises,
            exact_at_kernel_hat=factorises,
            exact_at_kernel=factorises,
            exact_at_integers=((element_order(self.iota_one) or 0)
                               == self.iota_kernel_generator == im_s),
            exact_at_strong_group=factorises,
            quotient_surjective=factorises,
            kernel_sum_generator=im_s,
        )


def invariants_report(a: ZeroOneMatrix) -> ExtInvariantReport:
    """Assemble every invariant of a (module docstring), and check that the
    quotient map carries the strong Toeplitz class to the weak one."""
    ima = _identity_minus(a)
    ones = (1,) * a.n
    det, w, weak = _weak_group(ima)
    strong = _strong_from_weak(ima, det, w, weak) if det else cokernel(_i_minus_hat(ima, 1))
    iota_one = strong.class_of(ima.column(0))
    report = ExtInvariantReport(
        matrix=a,
        extw_group=weak,
        exts_group=strong,
        toeplitz_weak=-weak.class_of(ones),
        toeplitz_strong=-iota_one - strong.class_of(ones),
        iota_one=iota_one,
        det_i_minus_a=det,
        iota_kernel_generator=element_order(iota_one) or 0,
        i_minus_a=ima,
    )
    if report.hat_q(report.toeplitz_strong) != report.toeplitz_weak:
        raise ArithmeticError("hat_q does not carry the strong Toeplitz class to the weak one")
    return report
