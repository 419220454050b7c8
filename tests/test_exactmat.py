import dataclasses
import json
import math
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ckext.exactmat import (
    DimensionMismatchError,
    IntMatrix,
    NotSquareError,
    _smith_mod,
    _unit_reduction,
    adjugate_or_kernel,
    adjugate_solve,
    determinant,
    hnf_columns,
)
from conftest import random_unimodular_rows, random_valid_rows, run_python
from lattice_oracles import (NotUnimodularError, SmithDecomposition, _certify_reduction,
                             kernel_basis, lattice_contains, lattice_equal, snf)


def mat(rows):
    return IntMatrix.from_rows(rows)


@st.composite
def int_matrices(draw, max_dim=5, min_dim=1, lo=-9, hi=9):
    r = draw(st.integers(min_dim, max_dim))
    c = draw(st.integers(min_dim, max_dim))
    rows = [[draw(st.integers(lo, hi)) for _ in range(c)] for _ in range(r)]
    return IntMatrix.from_rows(rows)


@st.composite
def square_matrices(draw, max_dim=5, lo=-9, hi=9):
    n = draw(st.integers(1, max_dim))
    rows = [[draw(st.integers(lo, hi)) for _ in range(n)] for _ in range(n)]
    return IntMatrix.from_rows(rows)


# --- IntMatrix basics ----------------------------------------------------

def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    # Entry types are checked at the boundary, by the public constructors.
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5]])


def test_constructors_reject_non_integral_entries():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5, 2]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([(1, 2.0)])
    assert IntMatrix.from_rows([[True, 2]]).entries == ((1, 2),)
    assert IntMatrix.from_columns([(1, 2)]).entries == ((1,), (2,))


def test_matrix_algebra():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert (a + b).entries == ((1, 3), (4, 4))
    assert (a - a).is_zero()
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert a.mul_vec((1, 1)) == (3, 7)
    with pytest.raises(DimensionMismatchError):
        a @ mat([[1, 2, 3]])


def test_zero_column_matrix_is_allowed():
    m = IntMatrix.from_columns([], rows=3)
    assert (m.rows, m.cols) == (3, 0)


# --- the exact Smith form of lattice_oracles ------------------------------

def test_snf_zero_matrix():
    dec = snf(mat([[0, 0], [0, 0]]))
    assert dec.d == IntMatrix.zeros(2, 2)
    assert dec.u == IntMatrix.identity(2)
    assert dec.v == IntMatrix.identity(2)


def test_snf_unimodular_input():
    dec = snf(mat([[0, -1], [-1, 1]]))
    assert dec.diagonal() == (1, 1)


def test_snf_coprime_diagonal():
    dec = snf(mat([[2, 0], [0, 3]]))
    assert dec.diagonal() == (1, 6)


def test_snf_rectangular():
    dec = snf(mat([[2, 4, 6], [4, 8, 12]]))
    assert dec.diagonal() == (2, 0)
    assert dec.d.cols == 3 and dec.d.rows == 2


def test_snf_zero_columns():
    dec = snf(IntMatrix.from_columns([], rows=2))
    assert dec.d.rows == 2 and dec.d.cols == 0


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_reconstruction_and_chain(m):
    dec = snf(m)  # SmithDecomposition validates the chain and unimodularity
    assert dec.u @ m @ dec.v == dec.d


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_determinant_is_signed_diagonal_product(m):
    dec = snf(m)
    prod = math.prod(dec.diagonal())
    assert abs(determinant(m)) == abs(prod)


# --- determinant ---------------------------------------------------------

def test_determinant_examples():
    assert determinant(IntMatrix.identity(4)) == 1
    i_minus_a1 = mat([[1, 0, -1], [-1, 1, -1], [-1, -1, 0]])
    assert determinant(i_minus_a1) == -3
    singular = mat([[0, -1, 0], [-1, 1, -1], [0, -1, 0]])
    assert determinant(singular) == 0


def test_determinant_requires_square():
    with pytest.raises(NotSquareError):
        determinant(mat([[1, 2, 3], [4, 5, 6]]))


def test_determinant_big_entries_exact():
    m = mat([[10**20, 1], [1, 10**20]])
    assert determinant(m) == 10**40 - 1


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_adjugate_solve_is_cramer(m, data):
    """det(m) as determinant gives it, and y = adj(m) b with m y = det(m) b."""
    b = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows))
    det, y = adjugate_solve(m, b)
    assert det == determinant(m)
    if det:
        assert m.mul_vec(y) == tuple(det * x for x in b)
    else:
        assert y is None
    assert adjugate_solve(m) == (det, None)


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_adjugate_or_kernel_certifies_rank_n_minus_1(m, data):
    """m with one or two columns replaced by combinations of the others is
    singular.  At every rank n - r, rank n - 1 included, the elimination
    returns (R, C, Y) with r rows R, r columns C and r vectors v with m v = 0,
    each equal to delta e_c on C, where delta = +-det of the minor without
    the rows R and the columns C, which is nonzero.  For nonsingular m, R, C
    and Y are empty."""
    n = m.rows
    if determinant(m):
        assert adjugate_or_kernel(m)[2] == ((), (), ())
    rows = [list(row) for row in m.entries]
    for j in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        for row in rows:
            row[j] = sum(c * x for k, (c, x) in enumerate(zip(coeffs, row)) if k != j)
    m = IntMatrix.from_rows(rows)
    det, y, (r_out, c_out, kernel) = adjugate_or_kernel(m, (1,) * n)
    assert (det, y) == (0, None) == adjugate_solve(m, (1,) * n)
    assert len(r_out) == len(c_out) == len(kernel) == n - sum(1 for d in snf(m).diagonal() if d)
    minor = IntMatrix.from_rows([[x for c, x in enumerate(row) if c not in c_out]
                                 for k, row in enumerate(m.entries) if k not in r_out])
    delta = kernel[0][c_out[0]]
    assert abs(delta) == abs(determinant(minor)) != 0
    for c, v in zip(c_out, kernel):
        assert [v[i] for i in c_out] == [delta * (i == c) for i in c_out]
        assert not any(m.mul_vec(v))


# --- Smith form modulo the determinant -----------------------------------

def _check_smith_mod(m):
    """_smith_mod(m, |det m|) has the invariant factors of snf(m), and its rows
    and columns present Z^n / m Z^n: each coordinate row kills m modulo its
    factor and the rows and columns pair to I modulo the factors."""
    d = abs(determinant(m))
    factors, u_rows, u_inv_cols = _smith_mod(m, d)
    assert factors == snf(m).diagonal()
    torsion = [f for f in factors if f > 1]
    assert len(u_rows) == len(u_inv_cols) == len(torsion)
    for i, (f, row) in enumerate(zip(torsion, u_rows)):
        assert all(x % f == 0 for x in (mat([row]) @ m).entries[0])
        assert [sum(x * y for x, y in zip(row, col)) % f for col in u_inv_cols] == \
            [int(i == j) for j in range(len(torsion))]


@settings(max_examples=300, deadline=None)
@given(square_matrices(max_dim=6, lo=-4, hi=4))
def test_smith_mod_matches_snf(m):
    if determinant(m):
        _check_smith_mod(m)


@settings(max_examples=150, deadline=None)
@given(square_matrices(lo=-4, hi=4), st.data())
def test_smith_mod_of_a_wide_matrix_matches_snf(m, data):
    """An n x (n + 1) matrix of rank n, modulo d = the product of its
    invariant factors (so that d Z^n lies in its column lattice): the factors
    of snf, and rows and columns that present the group."""
    extra = data.draw(st.lists(st.integers(-4, 4), min_size=m.rows, max_size=m.rows))
    m = m.hstack(IntMatrix.from_columns([extra]))
    diag = snf(m).diagonal()
    if not all(diag):
        return
    factors, u_rows, u_inv_cols = _smith_mod(m, math.prod(diag))
    assert factors == diag
    torsion = [f for f in factors if f > 1]
    for i, (f, row) in enumerate(zip(torsion, u_rows)):
        assert all(x % f == 0 for x in (IntMatrix.from_rows([row]) @ m).entries[0])
        assert [sum(x * y for x, y in zip(row, col)) % f for col in u_inv_cols] == \
            [int(i == j) for j in range(len(torsion))]


# Hand-built cases for the elimination's pitfalls.  [[3, 1], [3, 4]] and
# [[2, 1], [2, 3]]: the pivot divides the entry below it (an xgcd step there
# is a row swap, and the clearing would cycle).  diag(2, 2), [[4, 2], [2, 4]],
# diag(2, 4, 8) and diag(6, 10, 15): torsion that is not cyclic, with
# repeated primes.  [[4, 1], [-2, 2]]: det 10, pivot 4, and the xgcd
# coefficient of gcd(4, 10) = 4 (-2) + 10 is not a unit mod 10, so only a
# column that is already 4 e_1 may be scaled by it.
PITFALL_MATRICES = [
    [[3, 1], [3, 4]], [[2, 1], [2, 3]], [[2, 0], [0, 2]], [[4, 2], [2, 4]],
    [[2, 0, 0], [0, 4, 0], [0, 0, 8]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
    [[4, 1], [-2, 2]], [[2, 2, 0], [2, 2, 4], [0, 4, 2]],
]

_SMITH_MOD_SCRIPT = """
import json, sys
from ckext.exactmat import IntMatrix, _smith_mod, determinant
out = []
for rows in json.load(sys.stdin):
    m = IntMatrix.from_rows(rows)
    out.append(list(_smith_mod(m, abs(determinant(m)))[0]))
print(json.dumps(out))
"""


def test_smith_mod_terminates_on_its_pitfalls():
    """Each hand-built case finishes (in a subprocess with a 60 s timeout, so a
    cycle fails the test) with the factors of snf, and presents the group."""
    done = run_python(_SMITH_MOD_SCRIPT, input=json.dumps(PITFALL_MATRICES))
    assert done.returncode == 0, done.stderr
    for rows, factors in zip(PITFALL_MATRICES, json.loads(done.stdout), strict=True):
        m = mat(rows)
        assert tuple(factors) == snf(m).diagonal(), rows
        _check_smith_mod(m)


# --- unit reduction ------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(square_matrices(max_dim=7, lo=-2, hi=2), st.data())
def test_unit_reduction_reduces(m, data):
    """Replaying the record on m gives the recorded pivot rows, with +-1 at
    the pivot, and the residual on its rows and columns, zero in the pivot
    columns, with no +-1 left in it; det m = sign det(residual), the
    certificate passes, and V and L carry vectors as stated: m V x is x's
    image under the residual, zero at the pivot rows; 1^T V x = sigma x; and
    (y L) m V x = y residual x."""
    red = _unit_reduction(m)
    a = [list(row) for row in m.entries]
    for p, rows, fs in red.record:
        for i, f in zip(rows, fs, strict=True):
            a[i] = [x - f * y for x, y in zip(a[i], a[p])]
    for (p, c, e), rho in zip(red.pivots, red.pivot_rows, strict=True):
        assert e in (1, -1) and rho[c] == e and tuple(a[p]) == rho
    for i, row in zip(red.rows, red.residual.entries, strict=True):
        assert tuple(a[i][j] for j in red.cols) == row
        assert not any(a[i][c] for _, c, _ in red.pivots)
        assert 1 not in row and -1 not in row
    assert determinant(m) == red.sign * determinant(red.residual)
    red.certify(m)
    k = red.residual.rows
    x = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    y = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    full_x = red.carry_solution(x)
    assert m.mul_vec(full_x) == red.carry_lift(red.residual.mul_vec(x))
    assert sum(full_x) == sum(red.sigma[j] * v for j, v in zip(red.cols, x))
    assert sum(map(operator.mul, red.carry_row(y), m.mul_vec(full_x))) == \
        sum(map(operator.mul, y, red.residual.mul_vec(x)))


def test_unit_reduction_refuses_a_pivot_other_than_a_unit():
    """A pivot of the record that is not +-1 raises on construction, and a
    residual entry or a multiplier off by one fails the certificate."""
    m = mat([[1, 2, 0], [3, 1, 1], [0, 2, 2]])
    red = _unit_reduction(m)
    (p, c, e), *rest = red.pivots
    with pytest.raises(ArithmeticError):
        dataclasses.replace(red, pivots=((p, c, 2 * e), *rest))
    bumped = [list(row) for row in red.residual.entries]
    bumped[0][0] += 1
    (q, rows, (f, *fs)), *later = red.record
    for tampered in (dataclasses.replace(red, residual=mat(bumped)),
                     dataclasses.replace(red, record=((q, rows, (f + 1, *fs)), *later))):
        with pytest.raises(ArithmeticError):
            tampered.certify(m)


_FREE_LIST_SCRIPT = """
import json, sys
from ckext import invariants_report, validate
matrices = [validate(rows) for rows in json.load(sys.stdin)]
for _ in range(20):
    for a in matrices:
        invariants_report(a)
sys._debugmallocstats()
"""


def test_residual_sized_tuples_do_not_pile_up_on_free_lists():
    """800 reports of dense draws, N = 12..24, leave fewer than 200 tuples of
    each length 4..9 (the common residual sizes) on CPython's free lists:
    the hot helpers build their tuples from lists (see IntMatrix.from_rows).
    Built from generators, they leave 260 to 860 of each, and the lists grow
    with every round."""
    rows = [random_valid_rows(random.Random(s), 12 + s % 13) for s in range(40)]
    done = run_python(_FREE_LIST_SCRIPT, input=json.dumps(rows))
    assert done.returncode == 0, done.stderr
    free = {int(k): int(n) for n, k in
            re.findall(r"(\d+) free (\d+)-sized PyTupleObject", done.stderr)}
    if not free:
        pytest.skip("this Python reports no tuple free lists")
    assert all(free.get(k, 0) < 200 for k in range(4, 10)), free


# --- Hermite normal form -------------------------------------------------

def test_hnf_identity_fixed():
    assert hnf_columns(IntMatrix.identity(3)) == IntMatrix.identity(3)


def test_hnf_rank_one_examples():
    h = hnf_columns(mat([[0, -1], [0, 2]]))
    assert h.columns() == [(1, -2)]
    h = hnf_columns(mat([[2, 4], [0, 0]]))
    assert h.columns() == [(2, 0)]


def test_hnf_drops_zero_columns():
    h = hnf_columns(IntMatrix.zeros(3, 4))
    assert (h.rows, h.cols) == (3, 0)


def test_hnf_left_reduction():
    # second pivot reduces the entry to its left into [0, pivot)
    h = hnf_columns(mat([[1, 0], [7, 3]]))
    assert h.columns() == [(1, 1), (0, 3)]


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_hnf_idempotent(m):
    h = hnf_columns(m)
    assert hnf_columns(h) == h


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_dim=4), st.randoms(use_true_random=False))
def test_hnf_invariant_under_unimodular_column_mixing(m, rnd):
    w = IntMatrix.from_rows(random_unimodular_rows(rnd, m.cols)) if m.cols else None
    if w is None:
        return
    assert lattice_equal(m, m @ w)


# --- lattice predicates --------------------------------------------------

def test_lattice_equal_examples():
    assert lattice_equal(IntMatrix.identity(2), mat([[1, 5], [0, 1]]))
    assert not lattice_equal(mat([[2]]), mat([[3]]))
    with pytest.raises(DimensionMismatchError):
        lattice_equal(IntMatrix.identity(2), IntMatrix.identity(3))


def test_lattice_contains_examples():
    assert lattice_contains(IntMatrix.identity(3), (7, -2, 0))
    col = IntMatrix.from_columns([(-1, 2)])
    assert not lattice_contains(col, (0, -1))
    assert lattice_contains(col, (2, -4))
    with pytest.raises(DimensionMismatchError):
        lattice_contains(col, (1, 2, 3))


def test_lattice_contains_rejects_non_integral_entries():
    """A float is refused, not truncated: (1.5, 0) is not in Z^2."""
    with pytest.raises(TypeError):
        lattice_contains(IntMatrix.identity(2), (1.5, 0))
    assert lattice_contains(IntMatrix.identity(2), (3, -1))
    assert lattice_contains(IntMatrix.from_columns([(1, 1)]), (True, True))
    assert not lattice_contains(IntMatrix.from_columns([(2, 0)]), (True, False))


def test_lattice_contains_zero_lattice():
    empty = IntMatrix.from_columns([], rows=2)
    assert lattice_contains(empty, (0, 0))
    assert not lattice_contains(empty, (1, 0))


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_dim=4), st.data())
def test_lattice_contains_agrees_with_membership_by_construction(m, data):
    coeffs = [data.draw(st.integers(-4, 4)) for _ in range(m.cols)]
    v = tuple(sum(m.entries[i][j] * coeffs[j] for j in range(m.cols))
              for i in range(m.rows))
    assert lattice_contains(m, v)


# --- kernels -------------------------------------------------------------

def test_kernel_trivial():
    k = kernel_basis(IntMatrix.identity(2))
    assert (k.rows, k.cols) == (2, 0)


def test_kernel_rank_one():
    m = mat([[0, -1, 0], [-1, 1, -1], [0, -1, 0]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert lattice_equal(k, IntMatrix.from_columns([(1, 0, -1)]))


def test_kernel_full():
    assert lattice_equal(kernel_basis(IntMatrix.zeros(2, 2)), IntMatrix.identity(2))


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_kernel_annihilates_and_counts(m):
    k = kernel_basis(m)
    for j in range(k.cols):
        assert m.mul_vec(k.column(j)) == (0,) * m.rows
    rank = sum(1 for d in snf(m).diagonal() if d != 0)
    assert k.cols == m.cols - rank


def _hnf_kernel(m):
    """Kernel of m from the Hermite form of [m; I]: its columns with the top
    rows(m) entries zero, cut to their bottom part."""
    h = hnf_columns(m.vstack(IntMatrix.identity(m.cols)))
    return IntMatrix.from_columns(
        [c[m.rows:] for c in h.columns() if not any(c[:m.rows])], rows=m.cols)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=6, lo=-3, hi=3))
def test_kernel_matches_hermite_kernel(m):
    assert lattice_equal(kernel_basis(m), _hnf_kernel(m))


# --- transform inverses ---------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_transform_inverses(m):
    dec = snf(m)
    assert dec.u @ dec.u_inv == IntMatrix.identity(m.rows)
    assert m @ dec.v == dec.u_inv @ dec.d
    assert abs(determinant(dec.v)) == 1


def test_snf_of_unimodular_inverts_it():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        w = IntMatrix.from_rows(random_unimodular_rows(rng, n))
        dec = snf(w)
        assert dec.d == IntMatrix.identity(n)
        assert dec.v @ dec.u @ w == IntMatrix.identity(n)


def test_smith_decomposition_rejects_wrong_inverse():
    dec = snf(mat([[2, 4], [6, 8]]))
    wrong = dec.u_inv + mat([[0, 1], [0, 0]])
    with pytest.raises(NotUnimodularError):
        SmithDecomposition(dec.u, dec.d, dec.v, wrong)
    with pytest.raises(DimensionMismatchError):
        SmithDecomposition(dec.u, dec.d, dec.v, IntMatrix.identity(3))
    with pytest.raises(DimensionMismatchError):
        SmithDecomposition(dec.u, dec.d, IntMatrix.identity(3), dec.u_inv)


def test_reduction_certificate_needs_more_than_u_m_v_equals_d():
    """U M V = D holds for U = M = (1) with V = D = (0), and with V = D = (2),
    but V is not unimodular and Z / M Z = 0 is neither Z nor Z/2."""
    one = mat([[1]])
    for x in (0, 2):
        dec = SmithDecomposition(one, mat([[x]]), mat([[x]]), one)
        assert dec.u @ one @ dec.v == dec.d
        with pytest.raises(ArithmeticError):
            _certify_reduction(one, dec)
    _certify_reduction(one, snf(one))


@pytest.mark.parametrize("rows", [[[2, 4, 1], [6, 8, 3]], [[2, 4], [6, 8], [1, 3]]])
def test_reduction_certificate_rejects_a_tampered_witness_of_a_rectangular_matrix(rows):
    """M V = U^-1 D is checked column by column of U^-1 D, zero columns included."""
    m = mat(rows)
    dec = snf(m)
    _certify_reduction(m, dec)
    for i in range(dec.v.rows):
        bumped = [list(r) for r in dec.v.entries]
        bumped[i][-1] += 1
        with pytest.raises(ArithmeticError):
            _certify_reduction(m, SmithDecomposition(dec.u, dec.d, mat(bumped), dec.u_inv))
