import dataclasses
import json
import math
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from ckext import cli, exactmat, fgab, invariants, markediso
from ckext.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_ISOMORPHIC,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    ParseError,
    _verification_passed,
    build_parser,
    main,
    parse_matrix_text,
    report_document,
    verification_document,
)
from ckext.corpus import A1, A2, A4, A5, A6, CORPUS, FIBONACCI, cuntz_rows
from ckext.exactmat import IntMatrix
from ckext.fgab import GroupElement
from ckext.invariants import a_hat, extw, invariants_report, validate
from ckext.markediso import (DEFAULT_TORSION_BOUND, MarkedGroup, marked_isomorphic,
                             transposed_weak_pair)
from conftest import det_i_minus_a, random_valid_rows, run_python, singular_draw, tied_columns
from lattice_oracles import smith_cokernel


def write_matrix(tmp_path, name, rows, header=""):
    path = tmp_path / name
    body = header + "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
    path.write_text(body)
    return str(path)


# --- file grammar --------------------------------------------------------

def test_parse_accepts_comments_and_blank_lines():
    rows = parse_matrix_text("# a comment\n\n0 1\n# another\n1 1\n")
    assert rows == [[0, 1], [1, 1]]


def test_parse_rejects_bad_token():
    """The message names the line, counting comments and blank lines, and
    the first token on it that is not 0 or 1."""
    for text, message in (("0 2\n1 1\n", "line 1: token '2'"),
                          ("0 x\n1 1\n", "line 1: token 'x'"),
                          ("0 1\n1 2\n", "line 2: token '2'"),
                          ("# c\n\n1 0\n0 01 y\n", "line 4: token '01'"),
                          ("1 1\n1 -0\n", "line 2: token '-0'")):
        with pytest.raises(ParseError) as caught:
            parse_matrix_text(text)
        assert str(caught.value) == f"ParseError: {message} is not 0 or 1"


def test_parse_rejects_ragged_rows():
    with pytest.raises(ParseError):
        parse_matrix_text("0 1\n1\n")


def test_parse_rejects_non_square():
    with pytest.raises(ParseError):
        parse_matrix_text("0 1 1\n1 1 0\n")


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_matrix_text("# nothing\n")


# --- compute -------------------------------------------------------------

def test_compute_a1_structured(tmp_path, capsys):
    path = write_matrix(tmp_path, "a1.txt", A1, header="# example\n")
    assert main(["compute", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert doc["matrix"] == [list(r) for r in A1]
    assert doc["extw"]["free_rank"] == 0 and doc["extw"]["torsion"] == [3]
    assert doc["exts"]["free_rank"] == 1 and doc["exts"]["torsion"] == []
    assert doc["det_i_minus_a"] == -3
    assert doc["iota_kernel_generator"] == 0


def test_compute_a4_free_weak_group(tmp_path, capsys):
    path = write_matrix(tmp_path, "a4.txt", A4)
    assert main(["compute", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["extw"]["free_rank"] == 1 and doc["extw"]["torsion"] == []


def test_compute_rejects_permutation(tmp_path, capsys):
    path = write_matrix(tmp_path, "p.txt", [[0, 1], [1, 0]])
    assert main(["compute", path]) == EXIT_INPUT_ERROR
    assert "IsPermutation" in capsys.readouterr().err


def test_compute_rejects_parse_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "bad.txt", [[0, 7], [1, 1]])
    assert main(["compute", path]) == EXIT_INPUT_ERROR
    assert "ParseError" in capsys.readouterr().err


def test_compute_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    """Undecodable bytes are a parse error: exit 2 and one line on stderr."""
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 1\n# caf\xe9\n")
    for argv in (["compute", str(path)], ["verify", str(path)]):
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ParseError: byte 13 is not UTF-8 "
                                "(invalid continuation byte)\n")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # the offset counts the mark
    assert main(["compute", str(path)]) == EXIT_INPUT_ERROR
    assert "byte 16 is not UTF-8" in capsys.readouterr().err


def test_compute_accepts_a_utf8_byte_order_mark(tmp_path, capsys):
    """A file that starts with the UTF-8 byte-order mark reads as the same
    file without it."""
    plain = Path(write_matrix(tmp_path, "o2.txt", cuntz_rows(2)))
    marked = tmp_path / "o2-bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["compute", str(plain)]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["compute", str(marked)]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_compute_missing_file(capsys):
    assert main(["compute", "/nonexistent/matrix.txt"]) == EXIT_INPUT_ERROR


def test_compute_force_allows_reducible(tmp_path, capsys):
    path = write_matrix(tmp_path, "red.txt", [[1, 1], [0, 1]])
    assert main(["compute", path]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    assert main(["compute", path, "--force"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    json.loads(captured.out)


def test_compute_transpose_matches_transposed_input(tmp_path, capsys):
    p5 = write_matrix(tmp_path, "a5.txt", A5)
    p6 = write_matrix(tmp_path, "a6.txt", A6)
    assert main(["compute", p5, "--transpose"]) == EXIT_OK
    out_t = capsys.readouterr().out
    assert main(["compute", p6]) == EXIT_OK
    assert out_t == capsys.readouterr().out


def test_compute_deterministic(tmp_path, capsys):
    path = write_matrix(tmp_path, "a1.txt", A1)
    main(["compute", path])
    first = capsys.readouterr().out
    main(["compute", path])
    assert capsys.readouterr().out == first


def test_compute_text_roundtrip(tmp_path, capsys):
    path = write_matrix(tmp_path, "a1.txt", A1)
    assert main(["compute", path, "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    echoed = [line.strip() for line in text.splitlines()
              if line.startswith("  ") and set(line.split()) <= {"0", "1"}]
    assert parse_matrix_text("\n".join(echoed)) == [list(r) for r in A1]


def test_compute_verify_flag_embeds_booleans(tmp_path, capsys):
    path = write_matrix(tmp_path, "f.txt", FIBONACCI)
    assert main(["compute", path, "--verify"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["im0_identity"] is True


# --- compare -------------------------------------------------------------

def test_compare_distinguishes_a5_a6(tmp_path, capsys):
    p5 = write_matrix(tmp_path, "a5.txt", A5)
    p6 = write_matrix(tmp_path, "a6.txt", A6)
    assert main(["compare", p5, p6]) == EXIT_NOT_ISOMORPHIC
    doc = json.loads(capsys.readouterr().out)
    assert doc["isomorphic"] is False


def test_compare_fibonacci_with_cuntz_2(tmp_path, capsys):
    pf = write_matrix(tmp_path, "f.txt", FIBONACCI)
    p2 = write_matrix(tmp_path, "o2.txt", cuntz_rows(2))
    assert main(["compare", pf, p2]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True


def test_compare_reflexive(tmp_path, capsys):
    p1 = write_matrix(tmp_path, "a1.txt", A1)
    assert main(["compare", p1, p1]) == EXIT_OK


@pytest.mark.parametrize("draw_a, draw_b, code, marker_free", [
    ((0, 8), (3, 9), EXIT_OK, ([1], [1])),
    ((4, 5), (20, 7), EXIT_NOT_ISOMORPHIC, ([5], [2])),
])
def test_compare_singular_without_orbit_walk(tmp_path, capsys, monkeypatch,
                                             draw_a, draw_b, code, marker_free):
    """Singular draws of random_valid_rows(random.Random(seed), n), whose
    markers have a nonzero free part, are decided with the orbit walk
    disabled: Z + Z/2 marked (1, 0) against (1, 1) is one orbit, Z marked 5
    against Z marked 2 is not."""
    def no_walk(*args):
        raise AssertionError("compare reached the orbit walk")

    monkeypatch.setattr(markediso, "_orbit_walk", no_walk)
    paths = [write_matrix(tmp_path, f"{seed}_{n}.txt", random_valid_rows(random.Random(seed), n))
             for seed, n in (draw_a, draw_b)]
    assert main(["compare", *paths]) == code
    doc = json.loads(capsys.readouterr().out)
    assert (doc["a"]["transposed_weak_pair"]["marker"]["free"],
            doc["b"]["transposed_weak_pair"]["marker"]["free"]) == marker_free
    assert doc["isomorphic"] is (code == EXIT_OK)


def run_cli_subprocess(*argv):
    """Run the ckext command in a subprocess with a 60 s timeout, so that a
    hang fails the test."""
    script = "import sys; from ckext.cli import main; sys.exit(main(sys.argv[1:]))"
    return run_python(script, *argv)


@pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (20, 2), (20, 3), (40, 42)])
def test_compare_permuted_copy_beyond_walk_bound(tmp_path, n, seed):
    """A matrix and a relabelled copy are isomorphic, however large the weak
    group: the first draw of random.Random(seed) against P A P^T, in a
    subprocess so that a hang fails the test."""
    rng = random.Random(seed)
    rows = random_valid_rows(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    copy = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    done = run_cli_subprocess("compare", write_matrix(tmp_path, "a.txt", rows),
                              write_matrix(tmp_path, "b.txt", copy))
    assert done.returncode == EXIT_OK, done.stderr
    doc = json.loads(done.stdout)
    assert doc["isomorphic"] is True
    assert math.prod(doc["a"]["transposed_weak_pair"]["torsion"]) > DEFAULT_TORSION_BOUND


def test_compare_singular_draws_at_n60(tmp_path):
    """singular_draw(0, 60), whose exact Smith forms did not finish in 200 s,
    is isomorphic to a relabelled copy, and against singular_draw(1, 60)
    compare gives the verdict of the two transposed weak pairs; each call in
    a subprocess with a 60 s timeout."""
    rows, other = singular_draw(0, 60), singular_draw(1, 60)
    perm = list(range(60))
    random.Random(0).shuffle(perm)
    copy = [[rows[perm[i]][perm[j]] for j in range(60)] for i in range(60)]
    path = write_matrix(tmp_path, "a.txt", rows)
    done = run_cli_subprocess("compare", path, write_matrix(tmp_path, "copy.txt", copy))
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["a"]["transposed_weak_pair"]["free_rank"] == 1
    verdict = marked_isomorphic(transposed_weak_pair(validate(rows)),
                                transposed_weak_pair(validate(other)))
    done = run_cli_subprocess("compare", path, write_matrix(tmp_path, "b.txt", other))
    assert done.returncode == (EXIT_OK if verdict else EXIT_NOT_ISOMORPHIC), done.stderr
    assert json.loads(done.stdout)["isomorphic"] is verdict


def test_compare_reflexive_at_n50(tmp_path):
    """compare A A on the first draw of random.Random(0) at N = 50, whose
    exact Smith form of I - A^T took over a minute, answers within 60 s."""
    rows = random_valid_rows(random.Random(0), 50)
    path = write_matrix(tmp_path, "a.txt", rows)
    done = run_cli_subprocess("compare", path, path)
    assert done.returncode == EXIT_OK, done.stderr
    pair = json.loads(done.stdout)["a"]["transposed_weak_pair"]
    assert pair["free_rank"] == 0
    assert math.prod(pair["torsion"]) == abs(det_i_minus_a(validate(rows)))


# --- verify --------------------------------------------------------------

def test_verify_passes_on_corpus_member(tmp_path, capsys):
    path = write_matrix(tmp_path, "a2.txt", [[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert main(["verify", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert all(doc["exact_sequence"].values())


def test_verify_flags_degenerate_determinant(tmp_path, capsys):
    path = write_matrix(tmp_path, "gap.txt", [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert main(["verify", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert doc["det_i_minus_a"] == 0
    assert doc["kernel_sum_generator"] == 0


@pytest.mark.parametrize("rows", [A2, random_valid_rows(random.Random(5), 9)],
                         ids=["A2", "z5-draw"])
def test_verify_flags_a_tampered_toeplitz_class(tmp_path, capsys, monkeypatch, rows):
    """toeplitz_m_independence and hat_q_commutation each turn false on a
    report whose Toeplitz class is moved, and verify then exits 4.  Adding
    iota(1), which is not 0 in the strong group but is 0 in the weak one,
    moves the strong class off every column's class and keeps hat_q
    commuting; a nonzero weak shift breaks hat_q only."""
    rep = invariants_report(validate(rows))
    weak = rep.extw_group
    assert not rep.iota_one.is_zero() and weak.torsion
    shift = GroupElement(weak, (1,) + (0,) * (len(weak.torsion) - 1), (0,) * weak.free_rank)
    strong_moved = dataclasses.replace(
        rep, toeplitz_strong=rep.toeplitz_strong + rep.iota_one)
    weak_moved = dataclasses.replace(rep, toeplitz_weak=rep.toeplitz_weak + shift)
    path = write_matrix(tmp_path, "a.txt", rows)
    for tampered, m_independent, commutes in ((rep, True, True),
                                              (strong_moved, False, True),
                                              (weak_moved, True, False)):
        doc = verification_document(tampered)
        assert (doc["toeplitz_m_independence"], doc["hat_q_commutation"]) == \
            (m_independent, commutes)
        assert doc["im0_identity"] and all(doc["exact_sequence"].values())
        monkeypatch.setattr(cli, "invariants_report", lambda a, r=tampered: r)
        passed = m_independent and commutes
        assert main(["verify", path]) == (EXIT_OK if passed else EXIT_VERIFICATION_FAILED)
        assert json.loads(capsys.readouterr().out)["all_passed"] is passed


def test_parser_state_does_not_leak_between_calls(tmp_path, capsys):
    """One parser serves every call in a process, and no option of one call
    carries over to the next."""
    assert build_parser() is build_parser()
    path = write_matrix(tmp_path, "a1.txt", A1)
    assert main(["compute", path, "--verify"]) == EXIT_OK
    assert "verification" in json.loads(capsys.readouterr().out)
    assert main(["compute", path]) == EXIT_OK
    assert "verification" not in json.loads(capsys.readouterr().out)

    assert main(["compare", path, path, "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("isomorphic: yes\n")
    assert main(["compare", path, path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["compute", path, "--no-such-flag"])
        assert exc.value.code == EXIT_INPUT_ERROR
    capsys.readouterr()


# --- examples ------------------------------------------------------------

def test_examples_all_pass(capsys):
    assert main(["examples", "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) >= 10
    assert all(l.startswith("PASS") for l in lines)


def test_examples_structured(capsys):
    assert main(["examples"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert len(doc["results"]) == 22


# --- Smith forms per command -----------------------------------------------

@pytest.fixture
def smith_inputs(monkeypatch):
    """Records, while the test runs, the input of every fgab.modular_cokernel
    call that invariants makes: the weak group's in _weak_group and the
    strong group's in _strong_group.  markediso's modular cokernels of a
    quotient G/<x> are not counted."""
    modular, real = [], fgab.modular_cokernel

    def recording(m, *args):
        modular.append(m)
        return real(m, *args)

    monkeypatch.setattr(invariants, "modular_cokernel", recording)
    return modular


@pytest.fixture
def hnf_inputs(monkeypatch):
    """Records the input of every Hermite form computed through
    exactmat.hnf_columns while the test runs.  fgab, invariants and cli hold
    no Hermite form of their own; markediso's Hermite forms of the k x r
    matrix of free parts of k markers are not counted."""
    assert not any(hasattr(module, "hnf_columns") for module in (fgab, invariants, cli))
    inputs = []
    real = exactmat.hnf_columns

    def counting(m):
        inputs.append(m)
        return real(m)

    monkeypatch.setattr(exactmat, "hnf_columns", counting)
    return inputs


# Rank 4 of 6: the first draw of random.Random(1892) at N = 6.
LOW_RANK = random_valid_rows(random.Random(1892), 6)


def test_smith_forms_per_command(tmp_path, capsys, smith_inputs, hnf_inputs):
    """No normal form of an N x N matrix and no Hermite form in any command,
    whatever the rank of I - A.  A weak group comes from the residual of the
    unit reduction (read off w, or its modular Smith form modulo
    |det(I - A)| or, when I - A is singular, modulo the torsion order); a
    strong group from the modular cokernel of its square
    relation matrix, never a lattice of the input.  Every modular cokernel
    is of one of these two; verify reads node (4) off the kernel basis."""
    modular = smith_inputs
    singular = write_matrix(tmp_path, "a4.txt", A4)          # rank N - 1
    low_rank = write_matrix(tmp_path, "low.txt", LOW_RANK)   # rank N - 2
    nonsingular = write_matrix(tmp_path, "a1.txt", A1)       # det(I - A) = -3
    fibonacci = write_matrix(tmp_path, "f.txt", FIBONACCI)   # det(I - A) = -1
    # The residuals of I - A and I - A^T for every matrix used below, and
    # their strong relation matrices, rebuilt from _weak_group's outputs:
    # rows (-s, g, 0), d_c e_c and one zero row per free weak coordinate.
    residuals, relations = [], []
    rows_used = [A4, LOW_RANK, A1, FIBONACCI, singular_draw(0, 20)]
    for rows in rows_used + [entry.rows for entry in CORPUS]:
        for a in (validate(rows), invariants.transpose(validate(rows))):
            ima = invariants._identity_minus(a)
            residuals.append(exactmat._unit_reduction(ima).residual)
            assert residuals[-1].rows < a.n
            _, weak, _, strong_inputs = invariants._weak_group(ima)
            s, _, g = strong_inputs()
            k, f = 1 + len(weak.factors), weak.free_rank
            relations.append(IntMatrix.from_rows(
                [[-x for x in s] + [g] + [0] * f]
                + [[d * (i == j) for j in range(k)] for i, d in enumerate(weak.torsion)]
                + [[0] * k] * f))
            assert relations[-1].rows <= a.n

    def normal_forms(argv):
        """(modular cokernels, Hermite forms) run by one command; each
        modular cokernel is of a residual or a relation matrix, which is
        smaller than the input."""
        for inputs in (modular, hnf_inputs):
            inputs.clear()
        main(argv)
        capsys.readouterr()
        assert all(m in residuals or m in relations for m in modular)
        return len(modular), len(hnf_inputs)

    assert normal_forms(["compute", singular]) == (2, 0)
    assert normal_forms(["compute", singular, "--transpose", "--format", "text"]) == (2, 0)
    assert normal_forms(["compute", low_rank]) == (2, 0)
    assert normal_forms(["compute", nonsingular]) == (2, 0)
    assert normal_forms(["compute", fibonacci]) == (2, 0)
    # compare reads only the weak groups of the transposes.
    assert normal_forms(["compare", singular, fibonacci]) == (2, 0)
    assert normal_forms(["compare", low_rank, fibonacci]) == (2, 0)
    assert normal_forms(["compare", nonsingular, fibonacci]) == (2, 0)
    # The verifiers work by certificate: verify runs the normal forms of
    # compute and no other.
    for path, forms in ((singular, (2, 0)), (low_rank, (2, 0)),
                        (nonsingular, (2, 0))):
        assert normal_forms(["verify", path]) == forms
        assert normal_forms(["compute", path, "--verify"]) == forms
    # The same at N = 20, rank N - 1: singular_draw(0, 20).
    drawn = write_matrix(tmp_path, "s20.txt", singular_draw(0, 20))
    assert normal_forms(["compute", drawn, "--verify"]) == (2, 0)
    assert normal_forms(["compare", drawn, drawn]) == (2, 0)

    # examples: the relation matrix of each entry (no lattice is put in
    # Smith form); the expected marked groups are built from their
    # descriptors with no normal form.
    lattices = []
    for entry in CORPUS:
        a = validate(entry.rows)
        eye = IntMatrix.identity(a.n)
        lattices += [eye - a.as_int_matrix(), eye - a_hat(a, 1)]
    assert normal_forms(["examples"]) == (2 * len(CORPUS), 0)
    assert not any(m in lattices for m in modular)


@pytest.mark.parametrize("rows, corank", [
    ([[int(i == j) for j in range(5)] for i in range(5)], 5),
    # the cycles (1 2 3)(4 5)(6)(7)
    ([[int(j == {0: 1, 1: 2, 2: 0, 3: 4, 4: 3}.get(i, i)) for j in range(7)]
      for i in range(7)], 4)])
def test_full_corank_through_force(tmp_path, capsys, rows, corank):
    """compute --force --verify on I_N, where I - A = 0, so r = N and the
    minor M_0 is 0 x 0, and on a permutation matrix with c cycles, where
    r = c: exit 0, every verifier true, and both groups, with the weak pair
    and the strong triple, those of the Smith forms of I - A and I - A^."""
    path = write_matrix(tmp_path, "p.txt", rows)
    assert main(["compute", path, "--force", "--verify"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert _verification_passed(doc["verification"])
    a = validate(rows, force=True)
    rep = invariants_report(a)
    assert doc == report_document(rep, verification=doc["verification"])
    eye, ones = IntMatrix.identity(a.n), (1,) * a.n
    weak, strong = smith_cokernel(eye - a.as_int_matrix()), smith_cokernel(eye - a_hat(a, 1))
    iota = strong.class_of(rep.i_minus_a.column(0))
    assert rep.extw_group.free_rank == len(rep.kernel) == corank
    assert marked_isomorphic(MarkedGroup(rep.extw_group, (rep.toeplitz_weak,)),
                             MarkedGroup(weak, (-weak.class_of(ones),)))
    assert marked_isomorphic(MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one)),
                             MarkedGroup(strong, (-iota - strong.class_of(ones), iota)))


def test_verify_matrix_products_do_not_grow_with_n(tmp_path, capsys, monkeypatch):
    """I - A^_n is read off the columns of I - A, so a verify makes as many
    matrix products at N = 3 as at N = 8 or 12, between matrices that take the
    same path: singular, with a Smith form of I - A^, or nonsingular, with the
    strong group read off the weak one.  Its certificates multiply no two
    N x N matrices, singular or not, and on nonsingular input no step of the
    call does."""
    shapes, certifying = [], []
    real_matmul, real_document = IntMatrix.__matmul__, cli.verification_document

    def recording(self, other):
        shapes.append(((self.rows, self.cols), (other.rows, other.cols), bool(certifying)))
        return real_matmul(self, other)

    def document(rep):
        certifying.append(True)
        try:
            return real_document(rep)
        finally:
            certifying.pop()

    monkeypatch.setattr(IntMatrix, "__matmul__", recording)
    monkeypatch.setattr(cli, "verification_document", document)

    def products(rows, name, singular):
        n = len(rows)
        assert (det_i_minus_a(validate(rows)) == 0) == singular
        path = write_matrix(tmp_path, name, rows)
        shapes.clear()
        assert main(["verify", path]) == EXIT_OK
        capsys.readouterr()
        square = [inside for left, right, inside in shapes if left == right == (n, n)]
        assert not any(square)
        if not singular:
            assert not square
        return len(shapes)

    assert products(A4, "a4.txt", True) == \
        products(random_valid_rows(random.Random(0), 8), "singular8.txt", True) == \
        products(random_valid_rows(random.Random(21), 12), "singular12.txt", True)
    assert products(A1, "a1.txt", False) == \
        products(random_valid_rows(random.Random(2), 8), "dense8.txt", False) == \
        products(random_valid_rows(random.Random(0), 12), "dense12.txt", False)


def test_verify_hermite_forms_do_not_grow_with_n(tmp_path, capsys, hnf_inputs):
    """A verify runs no Hermite form, at N = 3 as at N = 6 to 12, whatever
    the rank of I - A: node (4) reads Im(s) = gcd(1^T x_1, ..., 1^T x_r) off
    the certified kernel basis (0 when det(I - A) != 0); the lattice identity
    is two explicit products."""
    def hermite_forms(rows, name, singular):
        assert (det_i_minus_a(validate(rows)) == 0) == singular
        path = write_matrix(tmp_path, name, rows)
        hnf_inputs.clear()
        assert main(["verify", path]) == EXIT_OK
        capsys.readouterr()
        return len(hnf_inputs)

    assert hermite_forms(A4, "a4.txt", True) == 0
    assert hermite_forms(random_valid_rows(random.Random(0), 8), "singular8.txt", True) == 0
    assert hermite_forms(LOW_RANK, "low6.txt", True) == 0
    # Rank 5 of 7: the first draw of random.Random(48) at N = 7.
    assert hermite_forms(random_valid_rows(random.Random(48), 7), "low7.txt", True) == 0
    assert hermite_forms(A1, "a1.txt", False) == 0
    assert hermite_forms(random_valid_rows(random.Random(0), 12), "dense12.txt", False) == 0


def test_examples_takes_no_torsion_bound(tmp_path, capsys):
    """Neither examples nor compare has a torsion-bound option."""
    with pytest.raises(SystemExit):
        main(["examples", "--torsion-bound", "3"])
    path = write_matrix(tmp_path, "a1.txt", A1)
    with pytest.raises(SystemExit) as exc:
        main(["compare", path, path, "--torsion-bound", "3"])
    assert exc.value.code == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_invariant_table_script():
    """scripts/invariant_table.py prints one row per corpus matrix, whose last
    two columns are det(I - A) and g from invariants_report."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "invariant_table.py"
    done = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[2:]
    assert len(rows) == len(CORPUS)
    for entry, row in zip(CORPUS, rows):
        fields = row.split()
        rep = invariants_report(validate(entry.rows))
        assert fields[0] == entry.name
        assert (int(fields[-2]), int(fields[-1])) == (rep.det_i_minus_a,
                                                     rep.iota_kernel_generator)


def test_benchmark_selftest_script():
    """perfbench/selftest.py drives cli.main and calls markediso.marked_group
    and marked_iso_bruteforce directly with JSON lists, outside any guard, so
    a change to that API shows here as a nonzero exit."""
    pytest.importorskip("sympy")
    script = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_scale_table_script(tmp_path):
    """scripts/scale_table.py prints a header and one row per requested draw:
    the report's time in s, the verifiers' time in ms, the number of digits
    of |det(I - A)|, the size k of the unit reduction's residual, and the
    weak group's path: "w" exactly when gcd(w, |det|) = 1, "mod D" for the
    other nonsingular draws, where the modular Smith form runs once on the
    residual, and "corank r" when I - A has rank N - r, r the free rank of
    the weak group.  A draw sN:SEED is singular_draw(SEED, N), and tN:SEED
    (tN:SEED:P) ties two (P) column pairs of the N:SEED draw.  A case that
    hits the time limit prints "timeout" for both times and keeps its row.
    --json PATH writes the same rows to PATH, with the times in seconds."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "scale_table.py"
    draws = [("6:0", random_valid_rows(random.Random(0), 6)),
             ("8:1", random_valid_rows(random.Random(1), 8)),
             ("12:2", random_valid_rows(random.Random(2), 12)),
             ("s10:0", singular_draw(0, 10)),
             ("6:1892", random_valid_rows(random.Random(1892), 6)),
             ("t12:0", tied_columns(random_valid_rows(random.Random(0), 12), ((0, 1), (2, 3)))),
             ("t14:1:3", tied_columns(random_valid_rows(random.Random(1), 14),
                                      ((0, 1), (2, 3), (4, 5))))]
    specs = [spec for spec, _ in draws]

    def table(*options):
        done = subprocess.run([sys.executable, str(script), "--draws", *specs, *options],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert [f.strip() for f in lines[0].strip("|").split("|")] == \
            ["N", "seed", "draw", "time", "verify", "digits of D", "k", "weak"]
        assert len(lines) == 2 + len(draws)
        return [[f.strip() for f in row.strip("|").split("|")] for row in lines[2:]]

    written, written_late = tmp_path / "scale.json", tmp_path / "late.json"
    printed = table("--json", str(written))
    printed_late = table("--limit", "0.001", "--json", str(written_late))
    records = json.loads(written.read_text())["rows"]
    records_late = json.loads(written_late.read_text())["rows"]
    assert len(records) == len(records_late) == len(draws)
    sources = set()
    for (spec, rows), fields, late, record, record_late in zip(
            draws, printed, printed_late, records, records_late, strict=True):
        assert (record["draw"], str(record["n"]), str(record["seed"]), record["kind"],
                str(record["digits_of_d"]), str(record["k"]), record["weak"]) == \
            (spec, *fields[:3], *fields[5:])
        assert not record["timeout"] and record["time_s"] >= 0 and record["verify_s"] >= 0
        assert f"{record['time_s']:.2f} s" == fields[3]
        assert f"{record['verify_s'] * 1e3:.1f} ms" == fields[4]
        assert record_late["timeout"] and record_late["time_s"] is record_late["verify_s"] is None
        sources.add(fields[7])
        n, seed = map(int, spec.lstrip("st").split(":")[:2])
        a = validate(rows)
        det = det_i_minus_a(a)
        residual = exactmat._unit_reduction(invariants._identity_minus(a)).residual
        assert (int(fields[0]), int(fields[1])) == (n, seed)
        assert fields[2] == {"s": "singular", "t": "tied"}.get(spec[0], "random")
        assert fields[3].endswith(" s") and fields[4].endswith(" ms")
        assert fields[5] == (str(len(str(abs(det)))) if det else "singular")
        assert int(fields[6]) == residual.rows < n
        assert late[3:5] == ["timeout", "timeout"] and late[:3] + late[5:] == \
            fields[:3] + fields[5:]
        with mock.patch.object(fgab, "_smith_mod", wraps=fgab._smith_mod) as smith_mod:
            weak = extw(a)
        if det:
            assert fields[7] == ("mod D" if smith_mod.called else "w")
            assert smith_mod.call_count == (fields[7] == "mod D")
            assert all(call.args[0] == residual for call in smith_mod.call_args_list)
        else:
            assert fields[7] == f"corank {weak.free_rank}"
    assert sources == {"w", "mod D", "corank 1", "corank 2", "corank 3"}
