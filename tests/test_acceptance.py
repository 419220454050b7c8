"""Acceptance suite.

One test per acceptance criterion; each records a PASS/FAIL line, printed in
the "acceptance criteria" section of the end-of-run summary.  All arithmetic
is exact, so every comparison is equality with zero tolerance.

Criterion 3 checks the classical published invariant table for the four 3x3
matrices A1..A4.  Four of its entries -- the strong triples of A2 and A3 and
both markers of A4 -- are errata: no valid 3x3 matrix realises them, and the
defining identities force other values (see the corpus module).  The
criterion pins every other entry verbatim and pins each erratum at its forced
value, backed by a certificate that needs no Smith form.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ckext.corpus import (
    A1, A2, A3, A4, A5, A6, CORPUS, FIBONACCI, PUBLISHED_DISCREPANCIES,
    MarkedDescriptor, cuntz_rows,
)
from ckext.exactmat import IntMatrix, determinant as matrix_determinant
from ckext.invariants import (
    ValidationError,
    a_hat,
    exts,
    extw,
    iota_hat,
    iota_kernel_generator,
    invariants_report,
    toeplitz_d_vector,
    toeplitz_strong,
    toeplitz_weak,
    validate,
    verify_exact_sequence,
    verify_im0_identity,
)
from ckext.markediso import (
    MarkedGroup,
    TooLargeError,
    ck_isomorphic,
    marked_group,
    marked_iso_bruteforce,
    marked_isomorphic,
)
from conftest import ACCEPTANCE_LINES, abelian_group_types, det_i_minus_a, random_valid_rows
from lattice_oracles import cokernel, smith_cokernel, snf

INJECTIVITY_GAP = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def _report(num, ok, desc):
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")


def _weak_pair(a):
    return MarkedGroup(extw(a), (toeplitz_weak(a),))


def _strong_triple(a):
    el = toeplitz_strong(a)
    return MarkedGroup(el.parent, (el, iota_hat(a, 1)))


# --- criterion 1: Cuntz algebras ------------------------------------------

def test_criterion_01_cuntz_algebras():
    failures = []
    for n in (2, 3, 4, 5):
        a = validate(cuntz_rows(n))
        if n == 2:
            weak_target = marked_group(0, (), ((),))
        else:
            weak_target = marked_group(0, (n - 1,), (((-1) % (n - 1),),))
        strong_target = marked_group(1, (), ((-1,), (1 - n,)))
        if not marked_isomorphic(_weak_pair(a), weak_target):
            failures.append(f"O_{n} weak")
        if not marked_isomorphic(_strong_triple(a), strong_target):
            failures.append(f"O_{n} strong")
    ok = not failures
    _report(1, ok, "Cuntz algebras O_2..O_5: weak (Z/(N-1), -1), strong (Z, -1, 1-N)")
    assert ok, failures


# --- criterion 2: Fibonacci ------------------------------------------------

def test_criterion_02_fibonacci():
    f = validate(FIBONACCI)
    checks = {
        "strong triple (Z, -2, -1)": marked_isomorphic(
            _strong_triple(f), marked_group(1, (), ((-2,), (-1,)))),
        "weak group trivial": extw(f).is_trivial(),
        "isomorphic to Cuntz algebra O_2": ck_isomorphic(f, validate(cuntz_rows(2))),
    }
    ok = all(checks.values())
    _report(2, ok, "Fibonacci: strong (Z, -2, -1), weak trivial, classified with O_2")
    assert ok, [k for k, v in checks.items() if not v]


# --- criterion 3: published table for A1..A4 -------------------------------

EXAMPLE3_ROWS = {"A1": A1, "A2": A2, "A3": A3, "A4": A4}
CORPUS_BY_NAME = {entry.name: entry for entry in CORPUS}

# The published table verbatim: (weak pair, strong triple) per matrix.
PUBLISHED_TABLE = {
    "A1": (MarkedDescriptor(0, (3,), ((2,),)),
           MarkedDescriptor(1, (), ((4,), (3,)))),
    "A2": (MarkedDescriptor(0, (4,), ((2,),)),
           MarkedDescriptor(1, (2,), ((-2, 0), (2, 1)))),
    "A3": (MarkedDescriptor(0, (2, 2), ((0, 0),)),
           MarkedDescriptor(1, (2, 2), ((-2, 0, 0), (1, 1, 1)))),
    "A4": (MarkedDescriptor(1, (), ((-1,),)),
           MarkedDescriptor(2, (), ((-2, -1), (1, 0)))),
}

# A4 certificates, checked by integer arithmetic in _erratum_certificates:
# (I - A4) l = 1_N with sum(l) = -2, so [1_N] is 0 weakly and iota(-2)
# strongly, whence [T]_w = 0 and [T]_s = -iota(1) + 2 iota(1) = iota(1);
A4_ONES_PREIMAGE = (-1, 0, -1)
# (I - A4^) w = d - (I - A4) e_1, the difference of the representatives of
# [T]_s and iota(1), which makes [T]_s = iota(1) explicit;
A4_TOEPLITZ_IOTA_WITNESS = (0, 0, 1)
# f (I - A4^) = 0 and f (I - A4) e_1 = -1, so f is a homomorphism from the
# strong group onto Z taking iota(1) to -1: iota(1) is primitive.
A4_IOTA_FUNCTIONAL = (0, 1, 1)


def _determinant_ratio(rows) -> Fraction:
    """-det(I - A + J) / det(I - A) by Bareiss determinants (J all ones).

    For det(I - A) != 0, phi(v) = sum((I - A)^{-1} v) vanishes on
    (I - A^) Z^N = (I - A)(sum-zero lattice), so it factors through the strong
    group, kills its torsion and embeds its free quotient Z into Q.  A marked
    isomorphism acts on that Z as +-1, so phi([T]_s) / phi(iota(1)) is a
    marked-isomorphism invariant and equals the ratio of the canonical free
    coordinates of [T]_s and iota(1).  Here phi(iota(1)) = sum(e_1) = 1 and
    phi([T]_s) = -1 - 1^T (I - A)^{-1} 1_N, which the matrix determinant lemma
    det(M + J) = det(M) (1 + 1^T M^{-1} 1) turns into the ratio returned.
    """
    n = len(rows)
    ima = IntMatrix.identity(n) - IntMatrix.from_rows(rows)
    ones = IntMatrix.from_rows([(1,) * n] * n)
    return Fraction(-matrix_determinant(ima + ones), matrix_determinant(ima))


def _free_part_ratio(strong: MarkedDescriptor) -> Fraction:
    """Free coordinate of [T]_s over that of iota(1) in a rank-one triple."""
    toeplitz, iota_one = strong.markers
    return Fraction(toeplitz[0], iota_one[0])


def _erratum_certificates():
    """Failed certificates for the four errata, by integer arithmetic alone.

    No Smith form, cokernel or marked-group search is involved.  A2 and A3:
    the free-part ratio of the corrected triple is the determinant ratio and
    that of the published triple is not; the two triples differ only in that
    coordinate.  A4: the vectors above force [T]_w = 0 and [T]_s = iota(1)
    primitive, while the published weak marker is nonzero and the published
    strong markers are distinct elements of Z^2.
    """
    failures = []
    for name in ("A2", "A3"):
        forced = _determinant_ratio(EXAMPLE3_ROWS[name])
        if _free_part_ratio(CORPUS_BY_NAME[name].strong) != forced:
            failures.append(f"{name} corrected strong ratio != {forced}")
        if _free_part_ratio(PUBLISHED_DISCREPANCIES[name]["strong"]) == forced:
            failures.append(f"{name} published strong ratio == {forced}")
    a4 = validate(A4)
    ima = IntMatrix.identity(3) - a4.as_int_matrix()
    ima_hat = IntMatrix.identity(3) - a_hat(a4, 1)
    iota_rep = ima.mul_vec((1, 0, 0))
    toeplitz_rep = toeplitz_d_vector(a4, 1)
    if ima.mul_vec(A4_ONES_PREIMAGE) != (1, 1, 1) or sum(A4_ONES_PREIMAGE) != -2:
        failures.append("A4 preimage of 1_N")
    if ima_hat.mul_vec(A4_TOEPLITZ_IOTA_WITNESS) != tuple(
            t - i for t, i in zip(toeplitz_rep, iota_rep)):
        failures.append("A4 witness of [T]_s = iota(1)")
    if (ima_hat.transpose().mul_vec(A4_IOTA_FUNCTIONAL) != (0, 0, 0)
            or sum(f * i for f, i in zip(A4_IOTA_FUNCTIONAL, iota_rep)) != -1):
        failures.append("A4 functional on iota(1)")
    published_weak = PUBLISHED_DISCREPANCIES["A4"]["weak"]
    published_strong = PUBLISHED_DISCREPANCIES["A4"]["strong"]
    if (published_weak.free_rank, published_weak.torsion) != (1, ()) \
            or not any(published_weak.markers[0]):
        failures.append("A4 published weak marker is not a nonzero element of Z")
    if (published_strong.free_rank, published_strong.torsion) != (2, ()) \
            or published_strong.markers[0] == published_strong.markers[1]:
        failures.append("A4 published strong markers are not distinct in Z^2")
    return failures


def _valid_matrices(n):
    """Every n x n 0-1 matrix that validate() accepts."""
    for bits in itertools.product((0, 1), repeat=n * n):
        try:
            a = validate([bits[i * n:(i + 1) * n] for i in range(n)])
        except ValidationError:
            continue
        yield a


def test_criterion_03_example3_published_table():
    failures = []
    for name, rows in EXAMPLE3_ROWS.items():
        a = validate(rows)
        computed = {"weak": _weak_pair(a), "strong": _strong_triple(a)}
        published = dict(zip(("weak", "strong"), PUBLISHED_TABLE[name]))
        forced = {"weak": CORPUS_BY_NAME[name].weak,
                  "strong": CORPUS_BY_NAME[name].strong}
        errata = PUBLISHED_DISCREPANCIES.get(name, {})
        for kind, marked in computed.items():
            if kind not in errata:
                if not marked_isomorphic(marked, published[kind].build()):
                    failures.append(f"{name} {kind}: published value not realised")
                continue
            if errata[kind] != published[kind]:
                failures.append(f"{name} {kind}: erratum record differs from the table")
            if not marked_isomorphic(marked, forced[kind].build()):
                failures.append(f"{name} {kind}: forced value not realised")
    failures += _erratum_certificates()

    # The search includes A2, A3 and A4 themselves.
    published_errata = [(name, kind, desc.build())
                        for name, entries in PUBLISHED_DISCREPANCIES.items()
                        for kind, desc in entries.items()]
    for a in _valid_matrices(3):
        computed = {"weak": _weak_pair(a), "strong": _strong_triple(a)}
        failures += [f"{name} {kind}: published erratum realised by {a.entries}"
                     for name, kind, target in published_errata
                     if marked_isomorphic(computed[kind], target)]
    ok = not failures
    _report(3, ok, "published table for A1..A4: verbatim except the certified "
                   "errata in A2, A3 and A4, which no valid 3x3 matrix realises")
    assert ok, failures


# A nonsingular matrix whose [T]_s and iota(1) have free parts of opposite
# sign: the determinant ratio is -1.
SIGN_FLIP = ((0, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 0))


def test_example3_formula_forced_values(verification_corpus):
    """The A1..A4 invariants that the defining identities force, pinned green,
    and the free-part ratio identity that the A2 and A3 errata rest on.

    A1 matches the published table; A2 and A3 differ from it only in the sign
    of iota(1)'s free part; A4's weak marker is 0 and its strong markers are
    one and the same primitive element.  For nonsingular I - A the strong
    group has rank one and the ratio of the canonical free coordinates of
    [T]_s and iota(1) is -det(I - A + J) / det(I - A); SIGN_FLIP shows that
    the two free parts need not share a sign.
    """
    forced = {
        "A1": (marked_group(0, (3,), ((2,),)),
               marked_group(1, (), ((4,), (3,)))),
        "A2": (marked_group(0, (4,), ((2,),)),
               marked_group(1, (2,), ((-2, 0), (-2, 1)))),
        "A3": (marked_group(0, (2, 2), ((0, 0),)),
               marked_group(1, (2, 2), ((-2, 0, 0), (-1, 1, 1)))),
        "A4": (marked_group(1, (), ((0,),)),
               marked_group(2, (), ((1, 0), (1, 0)))),
    }
    for name, (weak_target, strong_target) in forced.items():
        a = validate(EXAMPLE3_ROWS[name])
        assert marked_isomorphic(_weak_pair(a), weak_target), name
        assert marked_isomorphic(_strong_triple(a), strong_target), name

    assert _determinant_ratio(SIGN_FLIP) == -1
    checked = 0
    for a in [*verification_corpus, validate(SIGN_FLIP)]:
        if det_i_minus_a(a) == 0:
            continue
        toeplitz, iota_one = toeplitz_strong(a), iota_hat(a, 1)
        assert toeplitz.parent.free_rank == 1, a.entries
        ratio = Fraction(toeplitz.free_coords[0], iota_one.free_coords[0])
        assert ratio == _determinant_ratio(a.entries), a.entries
        checked += 1
    assert checked >= 100, checked


# --- criterion 4: the transposed pair --------------------------------------

def test_criterion_04_transposed_pair():
    a5, a6 = validate(A5), validate(A6)
    checks = {
        "A5 weak (Z/2, 0)": marked_isomorphic(
            _weak_pair(a5), marked_group(0, (2,), ((0,),))),
        "A6 weak (Z/2, 1)": marked_isomorphic(
            _weak_pair(a6), marked_group(0, (2,), ((1,),))),
        "A5 strong (Z, -2, -2)": marked_isomorphic(
            _strong_triple(a5), marked_group(1, (), ((-2,), (-2,)))),
        "A6 strong (Z+Z/2, -1+0, -1+-1)": marked_isomorphic(
            _strong_triple(a6), marked_group(1, (2,), ((-1, 0), (-1, -1)))),
        "algebras not isomorphic": not ck_isomorphic(a5, a6),
        "strong groups differ": (exts(a5).free_rank, exts(a5).torsion)
                                != (exts(a6).free_rank, exts(a6).torsion),
    }
    ok = all(checks.values())
    _report(4, ok, "A5/A6: weak pairs, strong triples, and non-isomorphism")
    assert ok, [k for k, v in checks.items() if not v]


# --- criteria 5 and 6: lattice identity and exact sequence -----------------

def _verification_corpus():
    rng = random.Random(5151)
    matrices = [validate(entry.rows) for entry in CORPUS]
    for _ in range(200):
        n = rng.choice((2, 3, 4, 5, 6))
        matrices.append(validate(random_valid_rows(rng, n)))
    return matrices


@pytest.fixture(scope="module")
def verification_corpus():
    return _verification_corpus()


def test_criterion_05_sum_zero_image_identity(verification_corpus):
    bad = [a for a in verification_corpus if not verify_im0_identity(a)]
    ok = not bad
    _report(5, ok, f"Im(I-A)_0 = (I-A^_n)Z^N for all n on {len(verification_corpus)} matrices")
    assert ok, [a.entries for a in bad]


def test_criterion_06_exact_sequence(verification_corpus):
    bad = []
    for a in verification_corpus:
        rep = verify_exact_sequence(a)
        if not rep.all_passed():
            bad.append((a.entries, rep))
    ok = not bad
    _report(6, ok, f"six-node exact sequence verified on {len(verification_corpus)} matrices")
    assert ok, bad


# --- criterion 7: Toeplitz consistency --------------------------------------

def test_criterion_07_toeplitz_consistency():
    failures = []
    for entry in CORPUS:
        a = validate(entry.rows)
        strong = toeplitz_strong(a)
        ima = IntMatrix.identity(a.n) - a.as_int_matrix()
        for m in range(1, a.n + 1):
            d = toeplitz_d_vector(a, m)
            vm = tuple(int(j == m - 1) for j in range(a.n))
            closed = tuple(-x - 1 for x in ima.mul_vec(vm))
            if d != closed:
                failures.append(f"{entry.name} m={m} entrywise")
            if strong.parent.class_of(d) != strong:
                failures.append(f"{entry.name} m={m} class")
    ok = not failures
    _report(7, ok, "d-vector = -(I-A)v(m) - 1_N and its class is the strong Toeplitz class")
    assert ok, failures


# --- criterion 8: choice independence ---------------------------------------

def test_criterion_08_choice_independence():
    rng = random.Random(88)
    failures = []
    for entry in CORPUS:
        a = validate(entry.rows)
        group = exts(a)
        ima = IntMatrix.identity(a.n) - a.as_int_matrix()
        for _ in range(100):
            k = [rng.randint(-6, 6) for _ in range(a.n)]
            kp = [rng.randint(-6, 6) for _ in range(a.n)]
            kp[-1] += sum(k) - sum(kp)
            if group.class_of(ima.mul_vec(k)) != group.class_of(ima.mul_vec(kp)):
                failures.append((entry.name, k, kp))
    ok = not failures
    _report(8, ok, "iota class independent of the representative (100 pairs per matrix)")
    assert ok, failures


# --- criterion 9: Smith form oracle -----------------------------------------

def test_criterion_09_smith_oracle():
    """The exact Smith form of lattice_oracles, with its transforms, is
    checked on its own, and the package's cokernel (the modular Smith form)
    has its free rank and torsion and the same verdict on a vector's class."""
    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        dec = snf(m)  # construction validates the chain and certifies U, U^-1
        if dec.u @ m @ dec.v != dec.d or abs(matrix_determinant(dec.v)) != 1:
            failures += 1
        if r == c:
            prod = math.prod(dec.diagonal())
            if abs(matrix_determinant(m)) != abs(prod):
                failures += 1
        group, oracle = cokernel(m), smith_cokernel(m)
        v = [rng.randint(-9, 9) for _ in range(r)]
        if ((group.free_rank, group.torsion) != (oracle.free_rank, oracle.torsion)
                or group.class_of(v).is_zero() != oracle.class_of(v).is_zero()):
            failures += 1
    ok = failures == 0
    _report(9, ok, "Smith form on 500 random matrices: U M V = D, unimodularity, chain, det, "
                   "and the package's cokernel agrees")
    assert ok


# --- criterion 10: marked-isomorphism oracle equivalence --------------------

def _bruteforce_estimate(ds):
    est = 1
    for d in ds:
        est *= math.prod(math.gcd(d, dj) for dj in ds)
    return est


def test_criterion_10_oracle_equivalence():
    rng = random.Random(1010)
    compared = skipped_types = disagreements = 0
    details = []
    for ds in abelian_group_types(64):
        est = _bruteforce_estimate(ds)
        if est > 500_000:
            skipped_types += 1
            continue
        cases = 12 if est <= 20_000 else (6 if est <= 120_000 else 3)
        for _ in range(cases):
            k = rng.choice([1, 1, 2, 2, 3])
            x_markers = [tuple(rng.randrange(d) for d in ds) for _ in range(k)]
            roll = rng.random()
            if roll < 0.2:
                y_markers = [tuple((-c) % d for c, d in zip(m, ds)) for m in x_markers]
            elif roll < 0.35 and ds:
                # permute coordinates among equal invariant factors
                perm = list(range(len(ds)))
                for d in set(ds):
                    idx = [i for i, di in enumerate(ds) if di == d]
                    shuffled = idx[:]
                    rng.shuffle(shuffled)
                    for a, b in zip(idx, shuffled):
                        perm[a] = b
                y_markers = [tuple(m[perm[i]] for i in range(len(ds))) for m in x_markers]
            else:
                y_markers = [tuple(rng.randrange(d) for d in ds) for _ in range(k)]
            x = marked_group(0, ds, x_markers)
            y = marked_group(0, ds, y_markers)
            try:
                oracle = marked_iso_bruteforce(x, y)
            except TooLargeError:
                continue
            fast = marked_isomorphic(x, y)
            compared += 1
            if oracle != fast:
                disagreements += 1
                details.append((ds, x_markers, y_markers, oracle, fast))
    ok = disagreements == 0 and compared >= 1000
    _report(10, ok, f"oracle equivalence on {compared} cases over the order-<=64 catalog "
                    f"({skipped_types} types beyond the brute-force work bound)")
    assert disagreements == 0, details
    assert compared >= 1000, compared


# --- criterion 11: injectivity discrepancy record ---------------------------

def test_criterion_11_injectivity_discrepancy_record():
    a = validate(INJECTIVITY_GAP)
    det = det_i_minus_a(a)
    gen = iota_kernel_generator(a)
    iota_nonzero = all(not iota_hat(a, m).is_zero()
                       for m in range(-6, 7) if m != 0)
    ok = det == 0 and gen == 0 and iota_nonzero
    _report(11, ok, "det(I-A) = 0 yet Ker(iota) = 0 and iota(m) != 0 for 0 < |m| <= 6")
    assert ok, (det, gen, iota_nonzero)


# --- desk-scale runtime ------------------------------------------------------

def test_desk_scale_runtime():
    rng = random.Random(42)
    a = validate(random_valid_rows(rng, 10))
    t0 = time.time()
    invariants_report(a)
    t_report = time.time() - t0
    t0 = time.time()
    verify_exact_sequence(a)
    t_seq = time.time() - t0
    t0 = time.time()
    verify_im0_identity(a)
    t_im0 = time.time() - t0
    assert max(t_report, t_seq, t_im0) < 1.0, (t_report, t_seq, t_im0)
