import dataclasses
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ckext.corpus import A1, A2, A3, A4, A5, A6, CORPUS, FIBONACCI, cuntz_rows
from ckext.exactmat import IntMatrix, _unit_reduction, adjugate_solve, hnf_columns
from ckext.exactmat import determinant as matrix_determinant
from ckext.fgab import (FgAbelianGroup, GroupElement, ParentMismatchError, certified_group,
                        element_order)
import ckext
from ckext import exactmat, fgab, invariants, markediso
from ckext.invariants import (
    ExactSequenceReport,
    IndexOutOfRangeError,
    IsPermutationError,
    NotIrreducibleError,
    NotZeroOneError,
    TooSmallError,
    ValidationError,
    a_hat,
    exts,
    extw,
    hat_q,
    invariants_report,
    iota_hat,
    iota_kernel_generator,
    toeplitz_d_vector,
    toeplitz_strong,
    toeplitz_weak,
    transpose,
    validate,
    verify_exact_sequence,
    verify_im0_identity,
)
from ckext.cli import report_document
from ckext.markediso import MarkedGroup, marked_group, marked_isomorphic
from conftest import det_i_minus_a, random_valid_rows, run_python, singular_draw, tied_columns
from lattice_oracles import kernel_basis, lattice_equal, smith_cokernel

INJECTIVITY_GAP = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


# --- validation ----------------------------------------------------------

def test_validate_accepts_corpus():
    for entry in CORPUS:
        validate(entry.rows)


def test_validate_rejects_permutation():
    with pytest.raises(IsPermutationError):
        validate([[0, 1], [1, 0]])


def test_validate_rejects_reducible():
    with pytest.raises(NotIrreducibleError):
        validate([[1, 1], [0, 1]])


def test_validate_rejects_non_zero_one():
    """The first entry outside {0, 1} in row-major order is named."""
    for raw, bad in (([[2, 0], [1, 1]], 2), ([[1, 0], [7, 2]], 7), (((0, 1), (-1, 1)), -1)):
        with pytest.raises(NotZeroOneError) as raised:
            validate(raw)
        assert str(raised.value) == f"NotZeroOne: entry {bad} is not 0 or 1"


def test_validate_rejects_too_small():
    with pytest.raises(TooSmallError):
        validate([[1]])


def test_validate_force_skips_semantic_checks():
    a = validate([[1, 1], [0, 1]], force=True)
    assert a.n == 2
    with pytest.raises(NotZeroOneError):
        validate([[5, 1], [1, 1]], force=True)


def test_transpose_swaps_entries():
    a = validate(A5)
    assert transpose(a).entries == validate(A6).entries


def test_validate_rejects_non_integral_entries():
    with pytest.raises(ValidationError, match=r"entry \(1, 1\) = 0.5"):
        validate([[0.5, 1], [1, 1.9]])
    with pytest.raises(ValidationError, match=r"entry \(2, 2\) = 1.9"):
        validate([[0, 1], [1, 1.9]])
    for raw, message in (([range(2), [1, "x"]], "entry (2, 2) = 'x'"),
                         ([[1, None], [1.0, 1]], "entry (1, 2) = None")):
        with pytest.raises(ValidationError) as raised:
            validate(raw)
        assert str(raised.value) == f"NotInteger: {message} is not an integer"
    assert validate([[True, 1], [1, 0]]).entries == ((1, 1), (1, 0))


# --- A^ ------------------------------------------------------------------

def test_a_hat_fibonacci():
    assert a_hat(validate(FIBONACCI), 1).entries == ((1, 1), (0, -1))


def test_a_hat_full_matrix_collapses_to_row_unit():
    a = validate(cuntz_rows(2))
    assert a_hat(a, 1) == IntMatrix.from_rows([(1, 1), (0, 0)])
    assert a_hat(a, 2) == IntMatrix.from_rows([(0, 0), (1, 1)])
    for n in (0, 3):
        with pytest.raises(IndexOutOfRangeError):
            a_hat(a, n)


def test_a_hat_first_column_of_complement_vanishes():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = validate(random_valid_rows(rng, n))
        hat = a_hat(a, 1)
        i_minus = IntMatrix.identity(n) - hat
        assert all(i_minus.entries[i][0] == 0 for i in range(n))


def test_a_hat_factorisation_all_rows():
    """A^_n = A + R_n - A R_n, with R_n built here, on the corpus and on
    seeded draws up to N = 12, for every n."""
    rng = random.Random(11)
    matrices = [validate(entry.rows) for entry in CORPUS]
    matrices += [validate(random_valid_rows(rng, size)) for size in range(2, 13)
                 for _ in range(2)]
    for a in matrices:
        am = a.as_int_matrix()
        for n in range(1, a.n + 1):
            rn = IntMatrix.from_rows([(int(i == n - 1),) * a.n for i in range(a.n)])
            assert rn @ rn == rn
            assert a_hat(a, n) == am + rn - am @ rn


# --- the two groups ------------------------------------------------------

def test_extw_descriptors():
    assert (extw(validate(cuntz_rows(4))).free_rank,
            extw(validate(cuntz_rows(4))).torsion) == (0, (3,))
    g3 = extw(validate(A3))
    assert (g3.free_rank, g3.torsion) == (0, (2, 2))
    g4 = extw(validate(A4))
    assert (g4.free_rank, g4.torsion) == (1, ())


def test_exts_descriptors():
    assert (exts(validate(cuntz_rows(5))).free_rank,
            exts(validate(cuntz_rows(5))).torsion) == (1, ())
    g2 = exts(validate(A2))
    assert (g2.free_rank, g2.torsion) == (1, (2,))
    g6 = exts(validate(A6))
    assert (g6.free_rank, g6.torsion) == (1, (2,))


# --- the strong group from the extension formula -------------------------

def _nonsingular_draws(per_size=3):
    """Seeded conftest draws with det(I - A) != 0, per_size at each N = 2..20,
    then the nonsingular corpus matrices."""
    rng = random.Random(11)
    draws = []
    for n in range(2, 21):
        found = 0
        while found < per_size:
            a = validate(random_valid_rows(rng, n))
            if det_i_minus_a(a):
                draws.append(a)
                found += 1
    return draws + [a for a in map(validate, (e.rows for e in CORPUS)) if det_i_minus_a(a)]


def test_strong_group_agrees_with_the_smith_form_of_i_minus_a_hat():
    """The group read off the weak group modulo |det| and w = 1^T adj(I - A)
    against smith_cokernel(I - A^): same shape, the same verdict on whether
    two vectors share a class, round-trip representatives and, for
    |T| <= 64, a marked isomorphism of the triples ([T]_s, iota(1))."""
    rng = random.Random(12)
    compared = 0
    for a in _nonsingular_draws():
        n = a.n
        rep = invariants_report(a)
        new = rep.exts_group
        assert new == exts(a)
        ima = IntMatrix.identity(n) - a.as_int_matrix()
        old = smith_cokernel(IntMatrix.identity(n) - a_hat(a, 1))
        assert (new.free_rank, new.torsion) == (old.free_rank, old.torsion)
        for _ in range(12):
            u = [rng.randint(-5, 5) for _ in range(n)]
            x = [rng.randint(-2, 2) for _ in range(n)]
            if rng.random() < 0.5:
                x[0] -= sum(x)  # a sum-zero x: (I - A) x lies in (I - A^) Z^N
            v = [p + q for p, q in zip(u, ima.mul_vec(x))]
            w = [p + rng.randint(-1, 1) for p in u]
            for y in (v, w):
                assert (new.class_of(u) == new.class_of(y)) == \
                    (old.class_of(u) == old.class_of(y))
            assert new.class_of(new.representative(new.class_of(u))) == new.class_of(u)
        if math.prod(new.torsion) <= 64:
            iota_old = old.class_of(ima.column(0))
            oracle = (-iota_old - old.class_of((1,) * n), iota_old)
            assert marked_isomorphic(MarkedGroup(new, (rep.toeplitz_strong, rep.iota_one)),
                                     MarkedGroup(old, oracle))
            compared += 1
    assert compared >= 40


def test_strong_group_certificate_rejects_a_tampered_coordinate_map():
    """Bumping any entry of a row that carries a coordinate (factor != 1)
    breaks fgab.certified_group's run-time check."""
    for rows in (A2, A3, random_valid_rows(random.Random(3), 9)):
        g = exts(validate(rows))
        certified_group(g.presentation, g.coords, g.lift, g.factors)
        for r, f in enumerate(g.factors):
            if f == 1:
                continue
            for c in range(g.coords.cols):
                bumped = [list(row) for row in g.coords.entries]
                bumped[r][c] += 1
                with pytest.raises(ArithmeticError):
                    certified_group(g.presentation, IntMatrix.from_rows(bumped), g.lift,
                                    g.factors)


def test_tampered_weak_witness_is_refused(monkeypatch):
    """One entry u_j of the row u with u M' = det(I - A) sigma' on the residual
    M' of the unit reduction, from which w = 1^T adj(I - A) is carried back,
    off by one makes invariants_report raise.  So does one entry of a
    coordinate row of the residual's U modulo |det| off by one, where
    gcd(w, |det|) > 1; where it is 1 (A1) the weak group is read off u and
    the modular Smith form of the residual is never run."""
    real_solve, real_mod = invariants.adjugate_or_kernel, fgab._smith_mod

    # Z/3 from w; (Z/2)^2 and Z/2 + Z/20 from the modular Smith form
    for rows, by_w in ((A1, True), (A3, False), (random_valid_rows(random.Random(4), 9), False)):
        a = validate(rows)
        ima = invariants._identity_minus(a)
        det, weak, *_ = invariants._weak_group(ima)
        w = adjugate_solve(ima.transpose(), (1,) * a.n)[1]
        assert det and weak.torsion and (math.gcd(det, *w) == 1) == by_w
        residual = _unit_reduction(ima).residual

        def no_smith_mod(m, d):
            if m == residual:
                raise AssertionError("modular Smith form run although gcd(w, |det|) = 1")
            return real_mod(m, d)

        for j in range(residual.rows):
            def bumped_w(m, b=None, j=j):
                det, w, kernel = real_solve(m, b)
                return det, w[:j] + (w[j] + 1,) + w[j + 1:], kernel

            def bumped_u(m, d, j=j):
                factors, u_rows, u_inv_cols = real_mod(m, d)
                u_rows = [list(row) for row in u_rows]
                u_rows[0][j] += 1
                return factors, u_rows, u_inv_cols

            fakes = [(invariants, "adjugate_or_kernel", bumped_w)]
            if not by_w:
                fakes.append((fgab, "_smith_mod", bumped_u))
            for module, name, fake in fakes:
                with monkeypatch.context() as patched:
                    patched.setattr(module, name, fake)
                    with pytest.raises(ArithmeticError):
                        invariants_report(a)
        if by_w:
            with monkeypatch.context() as patched:
                patched.setattr(fgab, "_smith_mod", no_smith_mod)
                invariants_report(a)


@st.composite
def nonsingular_matrices(draw, max_n=12):
    """Valid 0-1 matrices with det(I - A) != 0, N = 2..max_n."""
    n = draw(st.integers(2, max_n))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(n)]
    try:
        a = validate(rows)
    except ValidationError:
        assume(False)
    assume(det_i_minus_a(a) != 0)
    return a


def _weak_paths(a):
    """The report of a, whether gcd(w, |det|) = 1, and how many times the
    report ran the modular Smith form of the residual of the unit reduction
    of I - A, modulo |det|.  Every other modular Smith form of the report is
    the strong group's, of its (1+k)-row relation matrix, k the number of
    weak coordinates."""
    ima = invariants._identity_minus(a)
    det, w = adjugate_solve(ima.transpose(), (1,) * a.n)
    with mock.patch.object(fgab, "_smith_mod", wraps=fgab._smith_mod) as smith_mod:
        rep = invariants_report(a)
    residual = _unit_reduction(ima).residual
    weak = [call for call in smith_mod.call_args_list if call.args[0] == residual]
    assert all(call.args[1] == abs(det) for call in weak)
    assert all(call.args[0].rows == 1 + len(rep.extw_group.factors)
               for call in smith_mod.call_args_list if call not in weak)
    return rep, math.gcd(det, *w) == 1, len(weak)


@settings(max_examples=150, deadline=None)
@given(nonsingular_matrices())
def test_groups_agree_with_exact_smith_forms(a):
    """The weak group modulo |det| and the strong group from w against
    smith_cokernel(I - A) and smith_cokernel(I - A^): the same factors,
    marked-isomorphic weak pairs, and, for |T| <= 64, marked-isomorphic
    strong Toeplitz pairs and strong triples ([T]_s, iota(1)).  The modular
    Smith form of the residual of the unit reduction runs once, and never
    when gcd(w, |det|) = 1."""
    n = a.n
    rep, by_w, calls = _weak_paths(a)
    assert calls == (0 if by_w else 1)
    ima = IntMatrix.identity(n) - a.as_int_matrix()
    weak, strong = smith_cokernel(ima), smith_cokernel(IntMatrix.identity(n) - a_hat(a, 1))
    assert (rep.extw_group.free_rank, rep.extw_group.torsion) == (0, weak.torsion)
    assert (rep.exts_group.free_rank, rep.exts_group.torsion) == (1, strong.torsion)
    ones = (1,) * n
    assert marked_isomorphic(MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)),
                             MarkedGroup(weak, (-weak.class_of(ones),)))
    if math.prod(strong.torsion) <= 64:
        iota = strong.class_of(ima.column(0))
        t_s = -iota - strong.class_of(ones)
        assert marked_isomorphic(MarkedGroup(rep.exts_group, (rep.toeplitz_strong,)),
                                 MarkedGroup(strong, (t_s,)))
        assert marked_isomorphic(MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one)),
                                 MarkedGroup(strong, (t_s, iota)))


def test_both_weak_paths_agree_with_exact_smith_forms():
    """Dense draws with N <= 20: the weak pair read off u (the residual's
    part of w) and the one from the modular Smith form are both
    marked-isomorphic to the exact Smith form's, with at least 20 draws on
    each path."""
    paths = {True: 0, False: 0}
    for seed in range(120):
        a = validate(random_valid_rows(random.Random(seed), 2 + seed % 19))
        if not det_i_minus_a(a):
            continue
        rep, by_w, calls = _weak_paths(a)
        assert calls == (0 if by_w else 1)
        weak = smith_cokernel(IntMatrix.identity(a.n) - a.as_int_matrix())
        assert marked_isomorphic(MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)),
                                 MarkedGroup(weak, (-weak.class_of((1,) * a.n),)))
        paths[by_w] += 1
    assert min(paths.values()) >= 20, paths


# --- iota ----------------------------------------------------------------

def test_iota_zero_is_zero():
    for rows in (FIBONACCI, A1):
        assert iota_hat(validate(rows), 0).is_zero()


def test_iota_fibonacci_position():
    a = validate(FIBONACCI)
    pair = MarkedGroup(exts(a), (iota_hat(a, 1),))
    assert marked_isomorphic(pair, marked_group(1, (), ((-1,),)))


def test_iota_cuntz_position():
    for n in (2, 3, 4, 5):
        a = validate(cuntz_rows(n))
        pair = MarkedGroup(exts(a), (iota_hat(a, 1),))
        assert marked_isomorphic(pair, marked_group(1, (), ((1 - n,),)))


def test_iota_choice_independence(corpus_matrices):
    rng = random.Random(7)
    for _, a in corpus_matrices:
        group = exts(a)
        ima = IntMatrix.identity(a.n) - a.as_int_matrix()
        for _ in range(20):
            k = [rng.randint(-5, 5) for _ in range(a.n)]
            kp = [rng.randint(-5, 5) for _ in range(a.n)]
            kp[-1] += sum(k) - sum(kp)
            assert group.class_of(ima.mul_vec(k)) == group.class_of(ima.mul_vec(kp))


def test_iota_is_additive_in_m():
    a = validate(A2)
    cache = {m: iota_hat(a, m) for m in range(-6, 7)}
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            assert cache[m1 + m2] == cache[m1].add(cache[m2])


# --- Toeplitz classes ----------------------------------------------------

def test_toeplitz_strong_positions():
    a = validate(FIBONACCI)
    assert marked_isomorphic(
        MarkedGroup(exts(a), (toeplitz_strong(a),)), marked_group(1, (), ((-2,),)))
    for n in (2, 3, 4):
        b = validate(cuntz_rows(n))
        assert marked_isomorphic(
            MarkedGroup(exts(b), (toeplitz_strong(b),)), marked_group(1, (), ((-1,),)))
    c = validate(A5)
    assert marked_isomorphic(
        MarkedGroup(exts(c), (toeplitz_strong(c),)), marked_group(1, (), ((-2,),)))


def test_toeplitz_weak_positions():
    a1 = validate(A1)
    assert marked_isomorphic(
        MarkedGroup(extw(a1), (toeplitz_weak(a1),)), marked_group(0, (3,), ((2,),)))
    a6 = validate(A6)
    assert marked_isomorphic(
        MarkedGroup(extw(a6), (toeplitz_weak(a6),)), marked_group(0, (2,), ((1,),)))
    a4 = validate(A4)
    assert toeplitz_weak(a4).is_zero()


def test_toeplitz_d_vector_cases():
    ones = validate(cuntz_rows(4))
    assert toeplitz_d_vector(ones, 1) == (-1, 0, 0, 0)
    a1 = validate(A1)
    assert toeplitz_d_vector(a1, 1) == (-2, 0, 0)
    with pytest.raises(IndexOutOfRangeError):
        toeplitz_d_vector(a1, 4)


def test_toeplitz_d_vector_closed_form(corpus_matrices):
    for _, a in corpus_matrices:
        ima = IntMatrix.identity(a.n) - a.as_int_matrix()
        for m in range(1, a.n + 1):
            vm = tuple(int(j == m - 1) for j in range(a.n))
            expected = tuple(-x - 1 for x in ima.mul_vec(vm))
            assert toeplitz_d_vector(a, m) == expected


def test_toeplitz_d_vector_class_is_m_independent(corpus_matrices):
    for _, a in corpus_matrices:
        strong = toeplitz_strong(a)
        for m in range(1, a.n + 1):
            assert strong.parent.class_of(toeplitz_d_vector(a, m)) == strong


# --- hat_q ---------------------------------------------------------------

def test_hat_q_commutes_with_toeplitz(corpus_matrices):
    for _, a in corpus_matrices:
        assert hat_q(a, toeplitz_strong(a)) == toeplitz_weak(a)


def test_hat_q_kills_iota(corpus_matrices):
    for _, a in corpus_matrices:
        for m in (-2, 1, 3):
            assert hat_q(a, iota_hat(a, m)).is_zero()
        assert hat_q(a, exts(a).zero()).is_zero()


def test_hat_q_rejects_foreign_elements():
    a = validate(A1)
    with pytest.raises(ParentMismatchError):
        hat_q(a, extw(a).zero())


# --- injectivity data ----------------------------------------------------

def test_kernel_generator_zero_when_invertible(corpus_matrices):
    for _, a in corpus_matrices:
        if det_i_minus_a(a) != 0:
            assert iota_kernel_generator(a) == 0


def test_kernel_generator_of_injectivity_gap_matrix():
    a = validate(INJECTIVITY_GAP)
    assert det_i_minus_a(a) == 0
    assert iota_kernel_generator(a) == 0


def test_kernel_generator_divides_iff_iota_vanishes(corpus_matrices):
    for _, a in corpus_matrices:
        g = iota_kernel_generator(a)
        for m in range(-6, 7):
            expected_zero = (m == 0) if g == 0 else (m % g == 0)
            assert iota_hat(a, m).is_zero() == expected_zero


# --- verifiers -----------------------------------------------------------

def test_im0_identity_on_corpus(corpus_matrices):
    for _, a in corpus_matrices:
        assert verify_im0_identity(a)


def test_im0_identity_fibonacci_lattice():
    a = validate(FIBONACCI)
    ima = IntMatrix.identity(2) - a.as_int_matrix()
    im0 = IntMatrix.from_columns([ima.mul_vec((1, -1))])
    assert lattice_equal(im0, IntMatrix.from_columns([(-1, 2)]))
    assert verify_im0_identity(a)


def test_exact_sequence_on_corpus(corpus_matrices):
    for _, a in corpus_matrices:
        assert verify_exact_sequence(a).all_passed()


def _singular_draws(per_size=8):
    """Seeded conftest draws with det(I - A) = 0, per_size at each N = 4..10."""
    rng = random.Random(7)
    draws = []
    for n in range(4, 11):
        found = 0
        while found < per_size:
            a = validate(random_valid_rows(rng, n))
            if det_i_minus_a(a) == 0:
                draws.append(a)
                found += 1
    return draws


def _singular_against_exact_path(a):
    """The report of a against smith_cokernel(I - A) and
    smith_cokernel(I - A^): weak pairs and strong triples ([T]_s, iota(1))
    marked-isomorphic, and the same g.  Returns the report."""
    n = a.n
    rep = invariants_report(a)
    assert rep.extw_group == extw(a) and rep.det_i_minus_a == 0
    ima = IntMatrix.identity(n) - a.as_int_matrix()
    weak, strong = smith_cokernel(ima), smith_cokernel(IntMatrix.identity(n) - a_hat(a, 1))
    ones = (1,) * n
    iota = strong.class_of(ima.column(0))
    assert marked_isomorphic(MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)),
                             MarkedGroup(weak, (-weak.class_of(ones),)))
    assert marked_isomorphic(MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one)),
                             MarkedGroup(strong, (-iota - strong.class_of(ones), iota)))
    assert rep.iota_kernel_generator == (element_order(iota) or 0)
    return rep


def _valid_or_none(rows):
    try:
        return validate(rows)
    except ValidationError:
        return None


# Natural singular draws: the first draw of random.Random(seed) at N = 20 for
# the only 3 of 3000 seeds that are singular, and draws of rank below N - 1.
NATURAL_SINGULAR = ((20, 282), (20, 867), (20, 1160))
LOW_RANK_DRAWS = ((6, 1892), (7, 48), (8, 841), (10, 564), (10, 1851), (8, 2344))


def test_singular_groups_agree_with_exact_smith_forms():
    """Both groups of a singular I - A, from the saturated kernel bases of
    its residual, against the exact Smith forms of I - A and I - A^: the
    seeded singular draws, singular_draw for N <= 20, natural singular draws,
    A4 and criterion 11's matrix.  The rank N - 1 inputs cover g = 0 and
    g > 0, each with |T| = 1 and |T| > 1."""
    draws = _singular_draws() + [validate(rows) for rows in (A4, INJECTIVITY_GAP)]
    draws += [a for a in (_valid_or_none(singular_draw(seed, n))
                          for n in range(4, 21) for seed in range(2)) if a]
    draws += [validate(random_valid_rows(random.Random(seed), n))
              for n, seed in NATURAL_SINGULAR + LOW_RANK_DRAWS]
    cases, low_rank = set(), 0
    for a in draws:
        rep = _singular_against_exact_path(a)
        if len(rep.kernel) >= 2:
            low_rank += 1
        else:
            cases.add((rep.iota_kernel_generator > 0, math.prod(rep.extw_group.torsion) > 1))
    assert cases == {(False, False), (False, True), (True, False), (True, True)}
    assert low_rank >= len(LOW_RANK_DRAWS)


@st.composite
def low_rank_matrices(draw, max_n=10):
    """Valid 0-1 matrices with singular_draw's tweak applied to two disjoint
    column pairs (p, q) and (r, s), so that (I - A)(e_p - e_q) and
    (I - A)(e_r - e_s) vanish and I - A has rank below N - 1."""
    n = draw(st.integers(4, max_n))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(n)]
    p, q, r, s = draw(st.permutations(range(n)))[:4]
    for u, v in ((p, q), (r, s)):
        for i, row in enumerate(rows):
            if i not in (u, v):
                row[v] = row[u]
        rows[u][u], rows[u][v], rows[v][u], rows[v][v] = 1, 0, 0, 1
    a = _valid_or_none(rows)
    assume(a is not None)
    return a


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices())
def test_low_rank_groups_agree_with_exact_smith_forms(a):
    rep = _singular_against_exact_path(a)
    assert len(rep.kernel) == rep.extw_group.free_rank >= 2


TWO_PAIRS, THREE_PAIRS = ((0, 1), (2, 3)), ((0, 1), (2, 3), (4, 5))


# Singular inputs with |T| > 1 at r = 1, 2, 2 and 3: |T| = 3, 6, 4 and 2.
TORSION_SINGULAR = (singular_draw(1, 10),
                    tied_columns(random_valid_rows(random.Random(5), 8), TWO_PAIRS),
                    tied_columns(random_valid_rows(random.Random(7), 10), TWO_PAIRS),
                    tied_columns(random_valid_rows(random.Random(3), 8), THREE_PAIRS))


@pytest.mark.parametrize("rows", TORSION_SINGULAR)
def test_a_torsion_order_too_small_is_refused(monkeypatch, rows):
    """A saturated left-kernel basis Y* with its first row multiplied by a
    prime p dividing |T| forces delta to the proper divisor |T| / p, which
    the factors multiplying to delta and certified_group's check of the
    torsion alone would accept (T = Z/4 read modulo 2 is Z/2), and
    invariants_report raises ArithmeticError, as Y* Z = I_r fails.  So it
    does for a broken witness alpha (alpha X* = I_r) or Z: one entry off by
    one where the basis it pairs with is nonzero."""
    a = validate(rows)
    order = math.prod(invariants_report(a).extw_group.torsion)
    p = next(q for q in range(2, order + 1) if order % q == 0)
    real, real_modular = invariants._saturated, invariants.modular_cokernel
    deltas = []

    def recording(m, delta, *args):
        deltas.append(delta)
        return real_modular(m, delta, *args)

    def tampered(vectors, call, how):  # call 1 saturates Ker M', call 2 the left kernel
        bs, ws = real(vectors)
        calls.append(vectors)
        if len(calls) == call and how == "basis":
            bs[0] = [p * x for x in bs[0]]
        elif len(calls) == call:
            ws[0][next(i for i, x in enumerate(bs[0]) if x)] += 1
        return bs, ws

    monkeypatch.setattr(invariants, "modular_cokernel", recording)
    for call, how in ((2, "basis"), (1, "witness"), (2, "witness")):
        calls = []
        monkeypatch.setattr(invariants, "_saturated",
                            lambda v, call=call, how=how: tampered(v, call, how))
        with pytest.raises(ArithmeticError):
            invariants_report(a)
        assert len(calls) >= call
    assert deltas == [order // p, order]
    monkeypatch.setattr(invariants, "_saturated", real)
    assert invariants_report(a).extw_group.free_rank >= 1


# --- the unit reduction against full-size oracles ---------------------------

def _against_full_oracles(a):
    """The report of a against oracles on the full I - A: det_i_minus_a is
    the Bareiss determinant of I - A, the weak pair is marked-isomorphic to
    that of smith_cokernel(I - A), the strong group has the factors of
    smith_cokernel(I - A^) and, for |T| <= 64, a marked-isomorphic strong
    triple ([T]_s, iota(1)), and the report's kernel basis spans
    Ker(I - A).  Every pivot of the unit reduction is +-1.  Returns the
    residual's size."""
    n = a.n
    ima = IntMatrix.identity(n) - a.as_int_matrix()
    red = _unit_reduction(ima)
    assert all(e in (1, -1) and rho[c] == e
               for (_, c, e), rho in zip(red.pivots, red.pivot_rows, strict=True))
    rep = invariants_report(a)
    assert rep.det_i_minus_a == matrix_determinant(ima)
    weak, strong = smith_cokernel(ima), smith_cokernel(IntMatrix.identity(n) - a_hat(a, 1))
    ones = (1,) * n
    assert marked_isomorphic(MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)),
                             MarkedGroup(weak, (-weak.class_of(ones),)))
    assert (rep.exts_group.free_rank, rep.exts_group.torsion) == \
        (strong.free_rank, strong.torsion)
    if math.prod(strong.torsion) <= 64:
        iota = strong.class_of(ima.column(0))
        assert marked_isomorphic(
            MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one)),
            MarkedGroup(strong, (-iota - strong.class_of(ones), iota)))
    assert lattice_equal(IntMatrix.from_columns(rep.kernel, rows=n), kernel_basis(ima))
    return red.residual.rows


@st.composite
def dense_matrices(draw, max_n=20):
    """Valid 0-1 matrices, N = 2..max_n, each entry drawn on its own."""
    n = draw(st.integers(2, max_n))
    rows = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(n)]
    a = _valid_or_none(rows)
    assume(a is not None)
    return a


@st.composite
def sparse_matrices(draw, max_n=20):
    """Valid 0-1 matrices, N = 4..max_n, with about three ones per row: a
    cycle through a permutation of the vertices, for irreducibility, and up
    to two more ones per row."""
    n = draw(st.integers(4, max_n))
    order = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i, j in zip(order, order[1:] + order[:1]):
        rows[i][j] = 1
    for row in rows:
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            row[j] = 1
    a = _valid_or_none(rows)
    assume(a is not None)
    return a


@settings(max_examples=40, deadline=None)
@given(dense_matrices())
def test_unit_reduction_agrees_with_full_oracles_on_dense_draws(a):
    assert _against_full_oracles(a) < a.n


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_unit_reduction_agrees_with_full_oracles_on_sparse_draws(a):
    assert _against_full_oracles(a) < a.n


def test_unit_reduction_agrees_with_full_oracles_on_singular_inputs():
    """A4, criterion 11's matrix, the natural singular draws at N = 20,
    singular_draw and draws with two and three tied column pairs at
    N <= 20, of corank 1, 2 and 3, against the full-size oracles, and their
    strong triples marked-isomorphic to those of the exact Smith form."""
    draws = [validate(rows) for rows in (A4, INJECTIVITY_GAP)]
    draws += [validate(random_valid_rows(random.Random(seed), n))
              for n, seed in NATURAL_SINGULAR]
    draws += [a for a in (_valid_or_none(singular_draw(seed, n))
                          for n in (6, 12, 20) for seed in range(2)) if a]
    draws += [a for a in (_valid_or_none(tied_columns(random_valid_rows(random.Random(seed), n),
                                                     pairs))
                          for n in (6, 9, 12, 16, 20) for seed in range(3)
                          for pairs in (TWO_PAIRS, THREE_PAIRS)) if a]
    coranks = set()
    for a in draws:
        assert _against_full_oracles(a) < a.n
        coranks.add(len(_singular_against_exact_path(a).kernel))
    assert coranks == {1, 2, 3} and len(draws) >= 36


def test_tampered_unit_reduction_is_refused(monkeypatch):
    """One residual entry off by one makes invariants_report raise
    ArithmeticError; so does one wrong multiplier of the record, unless the
    rows carried back meet it only where they are zero or the certificates
    pass anyway, and then the report's document is the one made without it.
    A pivot other than +-1 raises.  The inputs
    take each path: a cyclic weak group (A1), the residual modulo |det|
    (A3 and a draw at N = 9), rank N - 1 (A4 and singular_draw) and rank
    N - 2 (LOW_RANK_DRAWS' first)."""
    real = invariants._unit_reduction
    inputs = [A1, A3, random_valid_rows(random.Random(4), 9), A4, singular_draw(0, 12),
              random_valid_rows(random.Random(LOW_RANK_DRAWS[0][1]), LOW_RANK_DRAWS[0][0])]
    refused = 0
    for rows in inputs:
        a = validate(rows)
        red = real(invariants._identity_minus(a))
        good = invariants_report(a)
        tampered = []
        for t, (p, rows, fs) in enumerate(red.record):
            for j in range(len(fs)):
                bumped = (p, rows, fs[:j] + (fs[j] + 1,) + fs[j + 1:])
                record = red.record[:t] + (bumped,) + red.record[t + 1:]
                tampered.append((dataclasses.replace(red, record=record), False))
        for i, row in enumerate(red.residual.entries):
            for j in range(len(row)):
                bumped = [list(r) for r in red.residual.entries]
                bumped[i][j] += 1
                tampered.append((dataclasses.replace(red, residual=IntMatrix.from_rows(bumped)),
                                 True))
        for fake, must_raise in tampered:
            monkeypatch.setattr(invariants, "_unit_reduction", lambda m, fake=fake: fake)
            try:
                rep = invariants_report(a)
            except ArithmeticError:
                refused += 1
            else:
                assert not must_raise and report_document(rep) == report_document(good)
        monkeypatch.setattr(invariants, "_unit_reduction", real)
        (p, c, e), *rest = red.pivots
        monkeypatch.setattr(invariants, "_unit_reduction",
                            lambda m: dataclasses.replace(real(m), pivots=((p, c, 2 * e), *rest)))
        with pytest.raises(ArithmeticError):
            invariants_report(a)
        monkeypatch.setattr(invariants, "_unit_reduction", real)
    assert refused >= 40


def test_normal_forms_see_only_the_residual(monkeypatch):
    """The Bareiss passes run on the k x k residual of the unit reduction of
    I - A or on a minor of it, and the modular Smith forms on that residual
    or on the strong group's square relation matrix, of size 1 + k_w for
    the k_w <= k weak coordinates; never on the N x N
    matrix: on a cyclic, a modular, a rank N - 1, a rank N - 2 and a rank
    N - 3 input, through invariants_report and the verifiers.  The package
    holds no exact Smith form."""
    names = ("snf", "SmithDecomposition", "_certify_reduction", "NotUnimodularError")
    assert not any(hasattr(module, name) for module in (ckext, exactmat, fgab, invariants,
                                                        markediso) for name in names)
    seen, reached = [], set()

    def recording(module, name, real):
        def wrapped(m, *args):
            seen.append((name, m.rows, m.cols))
            reached.add((module, name))
            return real(m, *args)
        return wrapped

    patched = ((exactmat, "adjugate_or_kernel"), (invariants, "adjugate_or_kernel"),
               (fgab, "_smith_mod"))
    for module, name in patched:
        monkeypatch.setattr(module, name, recording(module, name, getattr(module, name)))
    inputs = [A1, A3, random_valid_rows(random.Random(4), 20), singular_draw(0, 20),
              random_valid_rows(random.Random(1892), 6), TORSION_SINGULAR[3]]
    for rows in inputs:
        a = validate(rows)
        k = _unit_reduction(invariants._identity_minus(a)).residual.rows
        seen.clear()
        rep = invariants_report(a)
        assert rep.exact_sequence().all_passed() and rep.im0_identity()
        relation = 1 + len(rep.extw_group.factors)
        assert seen and k < a.n and relation <= k + 1
        for name, r, c in seen:
            if name == "adjugate_or_kernel":
                assert r == c <= k
            else:
                assert r in (k, relation)
    assert reached == set(patched)


def test_each_group_is_certified_once_on_its_reported_presentation(monkeypatch):
    """A report certifies two groups, each once and against the presentation
    it is reported for: the weak group against I - A and the strong group
    against I - A^_1, never the residual of the unit reduction or the strong
    relation matrix.  ck_isomorphic(a, a) certifies the two transposed weak
    groups and the two quotients G/<x>, four in all."""
    presentations = []
    real = fgab.certified_group

    def recording(presentation, *args):
        presentations.append(presentation)
        return real(presentation, *args)

    for module in (fgab, invariants, markediso):
        monkeypatch.setattr(module, "certified_group", recording)
    draws = [A1, A3, random_valid_rows(random.Random(4), 20), singular_draw(0, 20),
             tied_columns(random_valid_rows(random.Random(0), 20), TWO_PAIRS)]
    for rows in draws:
        a = validate(rows)
        ima = invariants._identity_minus(a)
        presentations.clear()
        invariants_report(a)
        assert presentations == [ima, invariants._i_minus_hat(ima, 1)]
        presentations.clear()
        assert markediso.ck_isomorphic(a, a)
        assert len(presentations) == 4


def test_eliminations_per_report_do_not_grow_with_the_corank(monkeypatch):
    """A report on I - A of corank r runs five Bareiss eliminations, whatever
    r is: the pass of the residual's transpose, one pass of the residual for
    its kernel, the determinants of the two saturated bases on I and J, and
    the phi solve on M_0^T.  A nonsingular I - A runs the first pass only."""
    calls = []
    real = exactmat.adjugate_or_kernel

    def counting(m, *args):
        calls.append(m.rows)
        return real(m, *args)

    for module in (exactmat, invariants):
        monkeypatch.setattr(module, "adjugate_or_kernel", counting)
    base = random_valid_rows(random.Random(0), 20)
    for pairs in (1, 2, 3, 4, 6):
        a = validate(tied_columns(base, [(2 * i, 2 * i + 1) for i in range(pairs)]))
        calls.clear()
        assert invariants_report(a).extw_group.free_rank == pairs
        assert len(calls) == 5
    calls.clear()
    assert invariants_report(validate(base)).det_i_minus_a
    assert len(calls) == 1


def _iota_free_coords_are_nonnegative(a):
    """iota(1) has free coordinates (L, 0, ..., 0), L > 0, when g = 0, where
    it has infinite order, and 0 otherwise (invariants._strong_group)."""
    rep = invariants_report(a)
    free = rep.iota_one.free_coords
    assert all(c >= 0 for c in free)
    assert any(free) == (rep.iota_kernel_generator == 0)


def test_iota_free_coords_are_nonnegative_on_the_corpus(corpus_matrices):
    for _, a in corpus_matrices:
        _iota_free_coords_are_nonnegative(a)


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_matrices(), low_rank_matrices()))
def test_iota_free_coords_are_nonnegative_on_draws(a):
    _iota_free_coords_are_nonnegative(a)


# --- the strong group in closed form -----------------------------------------

def _closed_form_draws():
    """The corpus, two seeded singular draws per N = 4..10, singular_draw
    for N = 4..16 and tied_columns at coranks 1, 2 and 3 (one, two and three
    tied column pairs) for N = 8..12."""
    draws = [validate(e.rows) for e in CORPUS] + _singular_draws(2)
    draws += [a for a in (_valid_or_none(singular_draw(seed, n))
                          for n in range(4, 17) for seed in range(2)) if a]
    for pairs in (((0, 1),), TWO_PAIRS, THREE_PAIRS):
        draws += [a for a in (_valid_or_none(tied_columns(random_valid_rows(
            random.Random(seed), n), pairs)) for n in (8, 10, 12) for seed in range(3)) if a]
    return draws


def _closed_form_against_oracle(a):
    """The strong group against smith_cokernel(I - A^): the same free rank
    and torsion and, for |T| <= 64, a marked-isomorphic triple
    ([T]_s, iota(1)).  The signs: iota(1) has a first free coordinate >= 0,
    and the last f free coordinates of the strong Toeplitz class, f the weak
    free rank, are those of the weak one.  Returns (g, f, |T|)."""
    n = a.n
    rep = invariants_report(a)
    strong, f = rep.exts_group, rep.extw_group.free_rank
    oracle = smith_cokernel(IntMatrix.identity(n) - a_hat(a, 1))
    assert (strong.free_rank, strong.torsion) == (oracle.free_rank, oracle.torsion)
    if math.prod(strong.torsion) <= 64:
        iota = oracle.class_of(invariants._identity_minus(a).column(0))
        assert marked_isomorphic(
            MarkedGroup(strong, (rep.toeplitz_strong, rep.iota_one)),
            MarkedGroup(oracle, (-iota - oracle.class_of((1,) * n), iota)))
    assert strong.free_rank >= 1 and rep.iota_one.free_coords[0] >= 0
    assert rep.toeplitz_strong.free_coords[strong.free_rank - f:] == \
        rep.toeplitz_weak.free_coords
    return rep.iota_kernel_generator, f, math.prod(strong.torsion)


def test_closed_form_strong_group_agrees_with_the_oracle():
    """Over the corpus, singular and tied draws: g = 0 and g > 0, weak free
    ranks 0 to 3 and nontrivial torsion all occur."""
    seen = [_closed_form_against_oracle(a) for a in _closed_form_draws()]
    assert {g > 0 for g, _, _ in seen} == {False, True}
    assert {f for _, f, _ in seen} >= {0, 1, 2, 3}
    assert any(order > 1 for *_, order in seen)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_matrices(max_n=12), low_rank_matrices()))
def test_closed_form_strong_group_agrees_with_the_oracle_on_draws(a):
    _closed_form_against_oracle(a)


@pytest.mark.parametrize("rows", [A2, A3, random_valid_rows(random.Random(4), 9),
                                  singular_draw(1, 10)])
def test_a_wrong_relation_kernel_row_is_refused(monkeypatch, rows):
    """With g = 0 the strong group rests on y = (L, L s_c / d_c).  y times a
    prime p dividing some d_c, whose delta prod d_c / (L p) is too small, and
    y with any one entry off by one make invariants_report raise
    ArithmeticError: y R = 0 fails in _strong_group, y Z = 1 in
    certified_group against I - A^, or delta is not an integer."""
    a = validate(rows)
    rep = invariants_report(a)
    ds = rep.extw_group.torsion
    assert rep.iota_kernel_generator == 0 and ds
    real = invariants._relation_kernel_row
    y = []

    def recording(s, d):
        y[:] = real(s, d)
        return real(s, d)

    monkeypatch.setattr(invariants, "_relation_kernel_row", recording)
    invariants_report(a)
    tampers = [lambda v, p=p: [p * x for x in v]
               for p in {q for d in ds for q in range(2, d + 1)
                         if d % q == 0 and all(q % r for r in range(2, q))}]
    tampers += [lambda v, j=j: v[:j] + [v[j] + 1] + v[j + 1:] for j in range(len(y))]
    for tamper in tampers:
        monkeypatch.setattr(invariants, "_relation_kernel_row",
                            lambda s, d, tamper=tamper: tamper(real(s, d)))
        with pytest.raises(ArithmeticError):
            invariants_report(a)


def test_the_relation_kernel_row_is_checked_to_kill_r(monkeypatch):
    """The certificate against I - A^ proves delta only for a y with y R = 0,
    so _strong_group checks that apart, before any certificate runs: y with
    its second entry off by one is refused there."""
    real = invariants._relation_kernel_row

    def tampered(s, d):
        y = real(s, d)
        return [y[0], y[1] + 1, *y[2:]]

    monkeypatch.setattr(invariants, "_relation_kernel_row", tampered)
    with pytest.raises(ArithmeticError, match="does not kill R"):
        invariants_report(validate(A2))


def test_kernel_generator_matches_kernel_sums():
    """g, the order of iota(1), is the gcd of the coordinate sums of a basis
    of Ker(I - A)."""
    positive = 0
    for a in _singular_draws():
        kernel = kernel_basis(IntMatrix.identity(a.n) - a.as_int_matrix())
        g = math.gcd(*(sum(col) for col in kernel.columns()))
        assert iota_kernel_generator(a) == g
        positive += g >= 1
    assert positive >= 20


def test_exact_sequence_rejects_a_wrong_kernel_generator(corpus_matrices):
    """Node (4) compares the order of iota(1), the report's g and Im(s), so a
    wrong g fails it."""
    nonsingular = [a for _, a in corpus_matrices if det_i_minus_a(a) != 0]
    singular = [a for a in _singular_draws() if iota_kernel_generator(a) >= 1]
    for a in nonsingular + singular:
        rep = invariants_report(a)
        g = rep.iota_kernel_generator
        assert g == 0 if rep.det_i_minus_a else g >= 1
        wrong = dataclasses.replace(rep, iota_kernel_generator=g + 1).exact_sequence()
        assert not wrong.exact_at_integers and not wrong.all_passed()
        right = rep.exact_sequence()
        assert right.all_passed() and right.kernel_sum_generator == g
    assert len(nonsingular) >= 10 and len(singular) >= 20


def test_exact_sequence_rejects_a_kernel_basis_it_cannot_certify():
    """Node (4) reads Im(s) off the report's kernel basis only when
    (I - A) x_i = 0 and an integral alpha has alpha x_i = e_i: a basis with
    its first vector doubled (not saturated) or moved off the kernel fails
    it, at r = 1, 2 and 3."""
    for rows in (A4,) + TORSION_SINGULAR:
        rep = invariants_report(validate(rows))
        assert rep.exact_sequence().all_passed()
        x, *rest = rep.kernel
        for moved in (tuple(2 * v for v in x), (x[0] + 1,) + x[1:]):
            seq = dataclasses.replace(rep, kernel=(moved, *rest)).exact_sequence()
            assert not seq.exact_at_integers and not seq.all_passed()


# --- normal-form oracles for the verifiers ------------------------------

def _oracle_im0_identity(a):
    """Im(I - A)_0 = (I - A^_n) Z^N, checked by Hermite forms for every n."""
    n = a.n
    ima = IntMatrix.identity(n) - a.as_int_matrix()
    sum_zero = [[int(j == i) - int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    im0 = hnf_columns(IntMatrix.from_columns([ima.mul_vec(e) for e in sum_zero], rows=n))
    return all(hnf_columns(IntMatrix.identity(n) - a_hat(a, m)) == im0
               for m in range(1, n + 1))


def _oracle_exact_sequence(rep):
    """Each node of the exact sequence with kernels computed afresh and
    compared with images as explicit lattices, for the report's strong
    presentation."""
    a = rep.matrix
    n = a.n
    i_minus_a = IntMatrix.identity(n) - a.as_int_matrix()
    i_minus_hat = rep.exts_group.presentation
    e1 = IntMatrix.from_columns([(1,) + (0,) * (n - 1)], rows=n)

    # (1) i_1 is injective and lands in Ker(I - A^): column 1 of I - A^ is zero.
    start_injects = all(i_minus_hat.entries[i][0] == 0 for i in range(n))

    # (2) Im(i_1) = Ker(j) within Ker(I - A^), j(l) = (-sum_{i>=2} l_i, l_2, ..., l_N).
    jm = IntMatrix.from_rows([(0,) + (-1,) * (n - 1)]
                             + [tuple(int(j == i) for j in range(n)) for i in range(1, n)])
    exact_at_kernel_hat = lattice_equal(kernel_basis(i_minus_hat.vstack(jm)), e1)

    # (3) j(Ker(I - A^)) = Ker(s) within Ker(I - A).
    image_j = jm @ kernel_basis(i_minus_hat)
    with_sums = i_minus_a.vstack(IntMatrix.from_rows([(1,) * n]))
    exact_at_kernel = lattice_equal(image_j, kernel_basis(with_sums))

    # (4) Im(s) = Ker(iota), from the Hermite column pivoted in the last row.
    h = hnf_columns(with_sums)
    last = h.column(h.cols - 1)
    im_s = 0 if any(last[:n]) else last[n]
    exact_at_integers = ((element_order(rep.iota_one) or 0)
                         == rep.iota_kernel_generator == im_s)

    # (5) Ker(q^) = Im(iota): (I - A^) Z^N + Z (I - A) e_1 = (I - A) Z^N.
    iota_col = IntMatrix.from_columns([i_minus_a.column(0)], rows=n)
    exact_at_strong_group = lattice_equal(i_minus_hat.hstack(iota_col), i_minus_a)

    # (6) q^ well defined and onto: (I - A) Z^N + (I - A^) Z^N = (I - A) Z^N.
    quotient_surjective = lattice_equal(i_minus_a.hstack(i_minus_hat), i_minus_a)

    return ExactSequenceReport(
        start_injects=start_injects,
        exact_at_kernel_hat=exact_at_kernel_hat,
        exact_at_kernel=exact_at_kernel,
        exact_at_integers=exact_at_integers,
        exact_at_strong_group=exact_at_strong_group,
        quotient_surjective=quotient_surjective,
        kernel_sum_generator=im_s,
    )


def test_verifiers_agree_with_the_normal_form_oracle(corpus_matrices):
    """Every field of the exact-sequence report, and the lattice identity,
    against the oracle, which checks the identity for every n: on the corpus,
    the singular draws and seeded nonsingular draws at N = 2..12."""
    singular = _singular_draws()
    nonsingular = [a for a in _nonsingular_draws() if a.n <= 12]
    matrices = [a for _, a in corpus_matrices] + singular + nonsingular
    for a in matrices:
        rep = invariants_report(a)
        assert rep.exact_sequence() == _oracle_exact_sequence(rep)
        assert verify_im0_identity(a) == _oracle_im0_identity(a)
    assert len(singular) == 56 and len(nonsingular) >= 30


def _with_presentation(rep, presentation):
    """rep with its strong group presented by another matrix, coordinates kept."""
    g = rep.exts_group
    group = FgAbelianGroup(presentation, g.coords, g.lift, g.factors)

    def moved(x):
        return GroupElement(group, x.torsion_coords, x.free_coords)

    return dataclasses.replace(rep, exts_group=group, toeplitz_strong=moved(rep.toeplitz_strong),
                               iota_one=moved(rep.iota_one))


def test_exact_sequence_rejects_a_presentation_that_does_not_factor():
    """Nodes (1), (2), (3), (5) and (6) rest on the certificate
    F = (I - A)(I - R_1) for the strong presentation F.  I - A^_2, or F with
    one entry changed, fails all five; node (4) does not read F."""
    for rows in (A2, INJECTIVITY_GAP, FIBONACCI, random_valid_rows(random.Random(5), 7)):
        a = validate(rows)
        rep = invariants_report(a)
        f = rep.exts_group.presentation
        tampered = [IntMatrix.identity(a.n) - a_hat(a, 2)]
        for i in range(a.n):
            for j in range(a.n):
                bumped = [list(row) for row in f.entries]
                bumped[i][j] += 1
                tampered.append(IntMatrix.from_rows(bumped))
        for presentation in tampered:
            assert presentation != f
            seq = _with_presentation(rep, presentation).exact_sequence()
            assert not any((seq.start_injects, seq.exact_at_kernel_hat, seq.exact_at_kernel,
                            seq.exact_at_strong_group, seq.quotient_surjective))
            assert seq.exact_at_integers and not seq.all_passed()
        assert rep.exact_sequence().all_passed()


def test_exact_sequence_on_injectivity_gap():
    rep = verify_exact_sequence(validate(INJECTIVITY_GAP))
    assert rep.all_passed()
    assert rep.kernel_sum_generator == 0


# --- the report ----------------------------------------------------------

def test_invariants_report_a1():
    rep = invariants_report(validate(A1))
    assert (rep.extw_group.free_rank, rep.extw_group.torsion) == (0, (3,))
    assert rep.det_i_minus_a == -3
    assert rep.iota_kernel_generator == 0
    triple = MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one))
    assert marked_isomorphic(triple, marked_group(1, (), ((4,), (3,))))


def test_invariants_report_a5():
    rep = invariants_report(validate(A5))
    assert marked_isomorphic(
        MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)), marked_group(0, (2,), ((0,),)))
    triple = MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one))
    assert marked_isomorphic(triple, marked_group(1, (), ((-2,), (-2,))))


def test_invariants_report_a3_group_shape():
    rep = invariants_report(validate(A3))
    assert (rep.exts_group.free_rank, rep.exts_group.torsion) == (1, (2, 2))


# --- heavy dense draws ---------------------------------------------------

_REPORT_SCRIPT = """
import json, sys
from ckext.invariants import invariants_report, validate
rep = invariants_report(validate(json.load(sys.stdin)))
print(json.dumps({
    "det": rep.det_i_minus_a,
    "weak": [rep.extw_group.free_rank, list(rep.extw_group.torsion)],
    "strong_free_rank": rep.exts_group.free_rank,
    "toeplitz_strong_free": list(rep.toeplitz_strong.free_coords),
    "iota_one_free": list(rep.iota_one.free_coords),
    "commutes": rep.hat_q(rep.toeplitz_strong) == rep.toeplitz_weak,
}))
"""


@pytest.mark.parametrize("n, seed", [(34, 1), (40, 42), (50, 0), (50, 1), (50, 2), (60, 0),
                                     (100, 0)])
def test_heavy_dense_draw_report(n, seed):
    """Draws whose exact Smith transforms reach thousands of bits, or did not
    finish (N = 50, seeds 0 and 1; N = 60), finish within 60 s (in a
    subprocess, so a hang fails the test) and agree with identities that
    need no Smith form."""
    rows = random_valid_rows(random.Random(seed), n)
    done = run_python(_REPORT_SCRIPT, input=json.dumps(rows))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)

    ima = IntMatrix.identity(n) - IntMatrix.from_rows(rows)
    det = matrix_determinant(ima)
    assert det != 0 and doc["det"] == det
    free_rank, torsion = doc["weak"]
    assert free_rank == 0 and math.prod(torsion) == abs(det)
    # For det(I - A) != 0 the strong group has rank one, and the free parts of
    # [T]_s and iota(1) have the ratio -det(I - A + J) / det(I - A).
    ones = IntMatrix.from_rows([(1,) * n] * n)
    assert doc["strong_free_rank"] == 1
    ratio = Fraction(doc["toeplitz_strong_free"][0], doc["iota_one_free"][0])
    assert ratio == Fraction(-matrix_determinant(ima + ones), det)
    assert doc["commutes"]


_SINGULAR_REPORT_SCRIPT = """
import json, sys
from ckext.cli import _verification_passed, verification_document
from ckext.invariants import invariants_report, validate
rep = invariants_report(validate(json.load(sys.stdin)))
weak = rep.extw_group
print(json.dumps({
    "det": rep.det_i_minus_a,
    "weak": [weak.free_rank, list(weak.torsion)],
    "x": list(rep.kernel[0]),
    "y": [list(row) for row in weak.coords.entries[len(weak.torsion):]],
    "g": rep.iota_kernel_generator,
    "strong_free_rank": rep.exts_group.free_rank,
    "all_passed": _verification_passed(verification_document(rep)),
}))
"""


@pytest.mark.parametrize("n, seed", [(50, 0), (50, 1), (60, 0), (100, 0)])
def test_heavy_singular_draw_report(n, seed):
    """singular_draw at N = 50 to 100, whose exact Smith forms took 191 s or
    more, finishes within 60 s (in a subprocess) and agrees with identities
    that need no Smith form: (I - A) x = 0 with x primitive, y (I - A) = 0
    for the free coordinate row y, |T| = |det M_0| / |x_j y_i| for the minor
    M_0 without row i and column j, g = |1^T x|, a strong free rank of
    1 + [g = 0], and all verifiers passing."""
    rows = singular_draw(seed, n)
    done = run_python(_SINGULAR_REPORT_SCRIPT, input=json.dumps(rows))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    ima = IntMatrix.identity(n) - IntMatrix.from_rows(rows)
    x, (y,) = doc["x"], doc["y"]
    assert doc["det"] == 0 and doc["weak"][0] == 1
    assert not any(ima.mul_vec(x)) and math.gcd(*x) == 1
    assert not any(sum(p * q for p, q in zip(y, col)) for col in ima.columns())
    i = next(k for k, v in enumerate(y) if v)
    j = next(k for k, v in enumerate(x) if v)
    minor = IntMatrix.from_rows([r[:j] + r[j + 1:] for k, r in enumerate(ima.entries) if k != i])
    assert math.prod(doc["weak"][1]) * abs(x[j] * y[i]) == abs(matrix_determinant(minor))
    assert doc["g"] == abs(sum(x))
    assert doc["strong_free_rank"] == 1 + (doc["g"] == 0)
    assert doc["all_passed"]
