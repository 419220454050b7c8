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
* verifiers by certificate, O(N^2) and with no normal form, for the lattice
  identity Im(I-A)_0 = (I - A^_n) Z^N and for the six-node exact sequence
  tying the two groups together (proofs in ExtInvariantReport.exact_sequence
  and verify_im0_identity).

invariants_report computes all of them; exts and the single-invariant helpers
(iota_hat, toeplitz_strong, hat_q, iota_kernel_generator) are views on it.

I - A is first eliminated on +-1 pivots (exactmat._unit_reduction) to a
k x k residual M', k < N, with the same cokernel; sigma = 1^T V, sigma' on
the residual's columns.  Every elimination below runs on M' or a minor of
it; rows, lifts and kernel vectors are carried back (_UnitReduction), and
every certificate is checked on I - A itself.

The weak group Z^k / M' Z^k = Z^r + T, M' of rank k - r, is read off the
Bareiss pass of [M'^T | b], b = sign sigma' (sign = det(I - A) / det M';
exactmat.adjugate_or_kernel), by fgab.modular_cokernel (_weak_group).
When det M' != 0 it gives u = adj(M'^T) b, u M' = det(I - A) sigma'^T,
which kills M' modulo delta = |det M'|; carried back, u is
w = 1^T adj(I - A), and gcd(w, D) = gcd(u, D) for D = |det(I - A)|.
Otherwise it names a nonsingular (k-r)-minor M_0 of M', without the rows
I and the columns J, and r rows Y with Y M' = 0, +-det M_0 I_r on I; a
Bareiss pass of M' gives X with M' X = 0, checked to have r columns.  Each
row y of Y is negated unless sum(y L), its row carried back, is <= 0 (at
r = 1, -[1_N] then has a nonnegative free coordinate).  The saturations X*
and Y* (_saturated) are bases of Ker M' and of the left kernel, with
witnesses alpha X* = I_r, checked, and Y* Z = I_r, checked by
certified_group on I - A (_transported), and

    delta = |T| = |det M_0| / (|det Y*_I| |det X*_J|).

Proof: let U M' V = diag(d_1, ..., d_{k-r}, 0, ..., 0) be a Smith form, so
|T| = d_1 ... d_{k-r}.  By Cauchy-Binet the (k-r)-minor of M' = U^-1 D V^-1
on the rows S and the columns S' is |T| det U^-1_{S,P} det V^-1_{P,S'},
P = {1, ..., k-r}, and by Jacobi's complementary-minor identity for the
unimodular U and V these are +-det U_{P^c,S^c} and +-det V_{S'^c,P^c}.  The
last r rows of U and the last r columns of V are bases of the left kernel
and of Ker M', and any other bases, Y* and X*, change those minors by a
unit.  So |det M'_{S,S'}| = |T| |det Y*_{S^c}| |det X*_{S'^c}| for any
bases, and S^c = I, S'^c = J give delta.  The saturation matters: a delta
that is too small passes certified_group and the factors multiplying to
delta (T = Z/4 read modulo 2 is Z/2).

The weak group has coordinate rows K_c, factors d_c and lifts l_c for its
coordinates c = 1..k, the torsion (a divisibility chain of d_c > 1) then
the free ones (d_c = 0), K_c l_c' = [c = c'] (mod d_c); from here on k
counts these coordinates, at most the residual's size.

The strong group, by the paper's extension 0 -> Z/g -> Ext_s -> Ext_w -> 0,
g the kernel generator ({1^T l : (I - A) l = 0} = g Z):

    Z^N / (I - A^) Z^N  =  Z^{1+k} / <d_c e_c - s_c e_0 (d_c > 0), g e_0>,

with e_0 standing for iota(1) = (I - A) e_1, e_c for l_c, s_c = 1^T x_c for
any integral x_c with (I - A) x_c = d_c l_c, and the class map
Phi = (Phi_0; K_1; ...; K_k), where Phi_0 v = 1^T x (mod g) for
v - sum_c (K_c v) l_c = (I - A) x, lifted by Psi = ((I - A) e_1, l_1, ...,
l_k).  (I - A^) Z^N is (I - A) Z^N_0, Z^N_0 the sum-zero vectors.  If
[v]_w = 0 then v = (I - A) x, with x fixed up to Ker(I - A) and so 1^T x up
to g Z, and v lies in (I - A) Z^N_0 iff 1^T x = 0 (mod g): (I - A^) Z^N is the
kernel of v -> (Phi_0 v mod g, [v]_w).  A combination a_0 e_0 + sum a_c e_c
of the images of iota(1) and the l_c maps to 0 iff a_c = d_c b_c and
a_0 + sum b_c s_c = 0 (mod g), so the relations are spanned by the
d_c e_c - s_c e_0 and g e_0.  The inputs (s, Phi_0, g) come from a row phi
with phi (I - A) u = 1^T u (mod g) for integral u, as s_c = phi (d_c l_c) and
Phi_0 = phi - sum_c (phi l_c) K_c.  With x_1, ..., x_r the kernel basis,
g = gcd(1^T x_1, ..., 1^T x_r), and alpha x_i = e_i, the row
tau = 1^T - sum_i (1^T x_i) alpha_i kills every x_i, so it is
phi (I - A) / det M_0 for a phi from one solve on M_0^T (zero on I, carried
back with det M_0 e_k sigma_c at the pivot rows); when r = 0, tau = 1^T,
g = 0 and that solve is u.  phi (I - A) and the divisions are checked.  The
right-hand side is read in closed form (_strong_group).  So no Bareiss
pass, no Smith form and no Hermite form runs on an N x N matrix.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from itertools import chain, compress
from dataclasses import dataclass, field

from .exactmat import (IntMatrix, _spread, _UnitReduction, _unit_reduction, adjugate_or_kernel,
                       adjugate_solve, determinant)
from .fgab import (FgAbelianGroup, GroupElement, ParentMismatchError, _unit_lift,
                   certified_group, element_order, modular_cokernel)


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
        if len(self.entries) != self.n or {*map(len, self.entries)} - {self.n}:
            raise ValueError("entries do not form an n-by-n matrix")
        if not {*chain.from_iterable(self.entries)} <= {0, 1}:
            x = next(x for row in self.entries for x in row if x not in (0, 1))
            raise NotZeroOneError(f"NotZeroOne: entry {x} is not 0 or 1")
        if self.n <= 1:
            raise TooSmallError("TooSmall: matrix size must exceed 1")

    def as_int_matrix(self) -> IntMatrix:
        return IntMatrix(self.n, self.n, self.entries)


def _strongly_connected(entries, n) -> bool:
    """Whether the digraph i -> j iff entries[i][j] = 1 is strongly connected.

    Linear-time check: every vertex reachable from vertex 0 along edges and
    along reversed edges, walking successor lists built by compress.
    """
    def reachable(lines, vertices=range(n)):
        succ = [list(compress(vertices, line)) for line in lines]
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for j in succ[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return all(seen)

    return reachable(entries) and reachable(zip(*entries))


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
    return ZeroOneMatrix(a.n, tuple(zip(*a.entries)))


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
                     tuple([tuple([x - row[c] for x in row]) for row in ima.entries]))


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


def _weak_group(ima: IntMatrix):
    """(det, weak, kernel, strong) for ima = I - A of rank N - r: det =
    det(ima), the weak group Z^N / ima Z^N = Z^r + T, a basis of Ker(ima) and
    a function giving _strong_group's inputs (s, Phi_0, g), all from the
    residual M' of the unit reduction and carried back (module docstring)."""
    n = ima.rows
    red = _unit_reduction(ima)
    red.certify(ima)
    m, sigma = red.residual, [red.sigma[j] for j in red.cols]
    mt = m.transpose()
    det, u, (j_out, i_out, ys) = adjugate_or_kernel(mt, [red.sign * v for v in sigma])
    if det:  # u m = det(ima) sigma', so u kills m modulo |det|, and phi = u with tau = 1^T
        det *= red.sign
        weak = _transported(red, ima, *modular_cokernel(m, abs(det), u))
        return det, weak, (), lambda: _through_phi(ima, weak, red.carry_row(u, det), det,
                                                   [1] * n, 0)
    k, r, d0 = m.rows, len(ys), abs(ys[0][i_out[0]])  # |det M_0|, before ys is saturated
    xs = adjugate_or_kernel(m)[2][2]
    if len(xs) != r:
        raise ArithmeticError("the kernel bases do not check")
    ys = [y if sum(red.carry_row(y)) <= 0 else [-v for v in y] for y in ys]  # by y L 1_N
    (xs, alpha), (ys, zs) = _saturated(xs), _saturated(ys)
    if not _is_dual(alpha, xs):
        raise ArithmeticError("the kernel basis is not saturated")
    minor = determinant(_minor(ys, range(r), i_out)) * determinant(_minor(xs, range(r), j_out))
    delta = _exact_quotient(d0, abs(minor))
    weak = _transported(red, ima, *modular_cokernel(m, delta, (), ys, zs))
    full_x = tuple([red.carry_solution(x) for x in xs])
    if any(any(ima.mul_vec(x)) for x in full_x):
        raise ArithmeticError("the kernel basis of I - A does not check")

    def strong():
        ts, target = [sum(x) for x in full_x], sigma
        for t, a in zip(ts, alpha):  # target = tau V on the residual's columns
            target = [s - t * v for s, v in zip(target, a)]
        # tau is 1 at the pivot columns and 1 + target - sigma' on the others
        tau = [1 + v for v in _spread(n, red.cols, map(operator.sub, target, sigma))]
        # phi m = den target on the residual, zero off M_0's rows
        rows = [i for i in range(k) if i not in i_out]
        cols = [j for j in range(k) if j not in j_out]
        den, phi = adjugate_solve(_minor(mt.entries, cols, rows), [target[j] for j in cols])
        return _through_phi(ima, weak, red.carry_row(_spread(k, rows, phi), den), den, tau,
                            math.gcd(*ts))

    return 0, weak, full_x, strong


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


def _transported(red: _UnitReduction, ima: IntMatrix, coords: IntMatrix, lift: IntMatrix,
                 factors: tuple[int, ...]) -> FgAbelianGroup:
    """The residual's group in modular_cokernel's coordinates, carried to
    Z^N / ima Z^N: a coordinate row K becomes K L, zero at the pivot rows,
    and a lift keeps its entries on the residual's rows, zero at the pivot
    rows.  Certified against ima only, the same check as against M': with K
    zero at the pivot rows, K L ima = K S V^-1 (_UnitReduction) is K M' on
    the residual's columns, 0 on the pivot ones, times a unimodular V^-1,
    and L fixes such a lift l, so K L l = K l."""
    return certified_group(
        ima, IntMatrix(len(factors), ima.cols,
                       tuple([red.carry_row(row) for row in coords.entries])),
        IntMatrix.from_columns([red.carry_lift(col) for col in lift.columns()], rows=ima.rows),
        factors)


def extw(a: ZeroOneMatrix) -> FgAbelianGroup:
    """Weak extension group: the Bowen-Franks group Z^N / (I - A) Z^N."""
    return _weak_group(_identity_minus(a))[1]


def exts(a: ZeroOneMatrix) -> FgAbelianGroup:
    """Strong extension group: Z^N / (I - A^) Z^N with A^ = A + R_1 - A R_1."""
    return invariants_report(a).exts_group


def _through_phi(ima: IntMatrix, weak: FgAbelianGroup, phi, den: int, target, g: int):
    """_strong_group's inputs (s, Phi_0, g) from a row phi with
    phi ima = den target, target = 1^T - (1^T x) alpha for Ker(ima) = Z x and
    alpha x = 1 (1^T when det != 0): s_c = d_c (phi l_c) / den and
    Phi_0 = (phi - sum_c (phi l_c) K_c) / den (module docstring)."""
    if any(sum(map(operator.mul, phi, col)) != den * t for col, t in zip(zip(*ima.entries),
                                                                         target)):
        raise ArithmeticError("phi (I - A) is not den (1^T - (1^T x) alpha)")
    pl = [sum(map(operator.mul, phi, col)) for col in weak.lift.columns()]
    phi0 = list(phi)
    for v, row in zip(pl, weak.coords.entries):
        phi0 = [p - v * q for p, q in zip(phi0, row)]
    return ([_exact_quotient(d * v, den) for d, v in zip(weak.torsion, pl)],
            [_exact_quotient(p, den) for p in phi0], g)


def _relation_kernel_row(s, d) -> list[int]:
    """y = (L, L s_1/d_1, ..., L s_t/d_t), L = lcm_c d_c / gcd(s_c, d_c): the
    primitive row killing the strong relations when g = 0 (_strong_group)."""
    big = math.lcm(*[dc // math.gcd(sc, dc) for sc, dc in zip(s, d)])
    return [big] + [big * sc // dc for sc, dc in zip(s, d)]


def _strong_group(ima: IntMatrix, weak: FgAbelianGroup, s, phi0, g: int) -> FgAbelianGroup:
    """Z^N / (I - A^) Z^N as Z^{1+k} / <d_c e_c - s_c e_0, g e_0>, e_0 for
    iota(1) and e_1..e_k for the t torsion and f free weak coordinates: the
    cokernel of the square relation matrix R, rows (-s, g, 0), d_c e_c and f
    zero rows, read by fgab.modular_cokernel off a basis Y of its left
    kernel, Z = _unit_lift of each row of Y, and the torsion order delta.

    The zero rows give f unit rows of Y.  When g != 0 they are all of it,
    and delta = g prod d_c, the determinant of R less them and its zero
    columns.  When g = 0, y R = 0 for y = (y_0, y_c, 0) means
    y_c d_c = y_0 s_c, so y_0 is a multiple of L = lcm_c d_c / gcd(s_c, d_c),
    and y = _relation_kernel_row has y_0 = L.  It is primitive: p^a exactly
    dividing L does so in some d_c / gcd(s_c, d_c), and then p divides
    neither L / (d_c / gcd) nor s_c / gcd.  The weak group's
    delta = |det M_0| / (|det Y*_I| |det X*_J|), with I row 0 and the zero
    rows, J column t and the zero columns, is prod d_c / L: M_0 = diag(d_c)
    and X* the unit columns on J.  y is not saturated, as content division
    would repair a wrong L, whose delta, too small, passes the torsion
    check.  R is not certified, as no output depends on it: K_R and L_R
    reach the report only as K_R Phi and Psi L_R, which certified_group
    checks against I - A^.  Psi inverts Phi on the cokernels, so
    Phi Psi = I + R W, W integral; with y R = 0, checked here, the exact
    check of y Phi on Psi Z is y Z = 1, so y is primitive and y_0 = L
    (delta > 0).  iota(1) has free coordinates (L, 0, ..., 0) when g = 0, 0
    otherwise, and the last f free coordinates of a class are its weak ones."""
    d, f = weak.torsion, weak.free_rank
    t, n = len(d), 1 + len(weak.factors)
    rel = IntMatrix(n, n, tuple([tuple([-x for x in s] + [g] + [0] * f)]
                                + [tuple([dc * (i == j) for j in range(n)])
                                   for i, dc in enumerate(d)] + [(0,) * n] * f))
    ys = [[int(i == j) for i in range(n)] for j in range(1 + t, n)]
    if g:
        delta = g * math.prod(d)
    else:
        y = _relation_kernel_row(s, d)
        if any(yc * dc != y[0] * sc for yc, dc, sc in zip(y[1:], d, s)):
            raise ArithmeticError("the relation kernel row does not kill R")
        ys, delta = [y + [0] * f] + ys, _exact_quotient(math.prod(d), y[0])
    coords, lift, factors = modular_cokernel(rel, delta, (), ys, [_unit_lift(y, 0) for y in ys])
    phi = IntMatrix(n, ima.cols, (tuple(phi0),) + weak.coords.entries)
    psi = IntMatrix.from_columns([ima.column(0)] + weak.lift.columns(), rows=ima.rows)
    return certified_group(_i_minus_hat(ima, 1), coords @ phi, psi @ lift, factors)


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

    together with g, Im(s) = g Z: gcd(1^T x_1, ..., 1^T x_r) for a basis
    x_1, ..., x_r of Ker(I - A), 0 when det(I - A) != 0.
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
    # A basis of Ker(I - A), for node (4)
    kernel: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)

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

        (4) Im(s) = Ker(iota) is computed apart from the strong group and
        must agree with the order of iota(1) and with the report's g.  The
        report's kernel basis x_1, ..., x_r has (I - A) x_i = 0 and an
        integral alpha with alpha x_i = e_i, both checked here, so it spans a
        saturated lattice, and I - A has rank N - r, on which the Bareiss
        passes of the residual and its transpose agreed when the report was
        built, so Ker(I - A) = sum Z x_i and Im(s) = gcd(1^T x_1, ...,
        1^T x_r) Z (0 when det(I - A) != 0, r = 0)."""
        ima, xs = self.i_minus_a, self.kernel
        factorises = self.exts_group.presentation.columns() == _minus_first(ima.columns())
        im_s = math.gcd(*map(sum, xs))
        kernel_certified = not any(any(ima.mul_vec(x)) for x in xs) and _is_dual(
            _saturated(xs)[1], xs)
        return ExactSequenceReport(
            start_injects=factorises,
            exact_at_kernel_hat=factorises,
            exact_at_kernel=factorises,
            exact_at_integers=kernel_certified and ((element_order(self.iota_one) or 0)
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
    det, weak, kernel, strong_inputs = _weak_group(ima)
    strong = _strong_group(ima, weak, *strong_inputs())
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
        kernel=kernel,
    )
    if report.hat_q(report.toeplitz_strong) != report.toeplitz_weak:
        raise ArithmeticError("hat_q does not carry the strong Toeplitz class to the weak one")
    return report
