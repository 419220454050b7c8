"""Command-line interface.

Subcommands:

* ``compute PATH``  - full invariant report for one matrix file
* ``compare A B``   - classification verdict for two matrices
* ``verify PATH``   - run the built-in lattice/exact-sequence verifiers
* ``examples``      - run the embedded regression corpus

Matrix files are UTF-8 text, with or without a byte-order mark, one row per
line as whitespace-separated 0/1 tokens; lines starting with ``#`` are
comments.  Structured output is a single JSON document with stable key order
and no timestamps, so identical input yields byte-identical output.

Exit codes: 0 success / all checks pass, 2 parse or validation error,
3 compare verdict "not isomorphic", 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .fgab import FgAbelianGroup, GroupElement
from .invariants import (
    ExtInvariantReport,
    ValidationError,
    ZeroOneMatrix,
    invariants_report,
    transpose,
    validate,
)
from .markediso import (
    MarkedGroup,
    TorsionTooLargeError,
    marked_isomorphic,
    transposed_weak_pair,
)
from .corpus import CORPUS

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_ISOMORPHIC = 3
EXIT_VERIFICATION_FAILED = 4


class ParseError(ValueError):
    """Matrix file violates the 0/1 grammar."""


_BITS = {"0": 0, "1": 1}


def parse_matrix_text(text: str) -> list[list[int]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            rows.append([_BITS[t] for t in tokens])
        except KeyError:
            tok = next(t for t in tokens if t not in _BITS)
            raise ParseError(f"ParseError: line {lineno}: token {tok!r} is not 0 or 1") from None
    if not rows:
        raise ParseError("ParseError: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ParseError: rows have unequal lengths")
    if len(rows) != width:
        raise ParseError(f"ParseError: {len(rows)} rows of length {width}; matrix must be square")
    return rows


def load_matrix(path: str, *, use_transpose: bool = False, force: bool = False) -> ZeroOneMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark
    except UnicodeDecodeError as exc:
        raise ParseError(f"ParseError: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    rows = parse_matrix_text(text)
    a = validate(rows, force=force)
    if force:
        print(f"warning: {path}: validation relaxed by --force; "
              "results are pure lattice data", file=sys.stderr)
    return transpose(a) if use_transpose else a


def _group_doc(g: FgAbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _element_doc(e: GroupElement) -> dict:
    return {"free": list(e.free_coords), "torsion": list(e.torsion_coords)}


def report_document(rep: ExtInvariantReport, *, verification: dict | None = None) -> dict:
    a = rep.matrix
    doc = {
        "n": a.n,
        "matrix": [list(row) for row in a.entries],
        "extw": {
            **_group_doc(rep.extw_group),
            "toeplitz_weak": _element_doc(rep.toeplitz_weak),
        },
        "exts": {
            **_group_doc(rep.exts_group),
            "toeplitz_strong": _element_doc(rep.toeplitz_strong),
            "iota_one": _element_doc(rep.iota_one),
        },
        "det_i_minus_a": rep.det_i_minus_a,
        "iota_kernel_generator": rep.iota_kernel_generator,
    }
    if verification is not None:
        doc["verification"] = verification
    return doc


def verification_document(rep: ExtInvariantReport) -> dict:
    strong = rep.exts_group
    seq = rep.exact_sequence()
    # The index vector toeplitz_d_vector(a, m) is -(I - A) e_m - 1_N, so its
    # class is the Toeplitz class iff column m of I - A has class -t - [1_N].
    target = -rep.toeplitz_strong - strong.class_of((1,) * rep.matrix.n)
    m_independent = strong.columns_in_class(rep.i_minus_a, target)
    commutes = rep.hat_q(rep.toeplitz_strong) == rep.toeplitz_weak
    return {
        "im0_identity": rep.im0_identity(),
        "exact_sequence": {
            "start_injects": seq.start_injects,
            "exact_at_kernel_hat": seq.exact_at_kernel_hat,
            "exact_at_kernel": seq.exact_at_kernel,
            "exact_at_integers": seq.exact_at_integers,
            "exact_at_strong_group": seq.exact_at_strong_group,
            "quotient_surjective": seq.quotient_surjective,
        },
        "toeplitz_m_independence": m_independent,
        "hat_q_commutation": commutes,
        "kernel_sum_generator": seq.kernel_sum_generator,
    }


def _verification_passed(doc: dict) -> bool:
    seq = doc["exact_sequence"]
    return (doc["im0_identity"] and all(seq.values())
            and doc["toeplitz_m_independence"] and doc["hat_q_commutation"])


def _render_element(e: dict) -> str:
    return f"free={e['free']} torsion={e['torsion']}"


def render_report_text(doc: dict) -> str:
    lines = [f"n: {doc['n']}", "matrix:"]
    lines += ["  " + " ".join(str(x) for x in row) for row in doc["matrix"]]
    w, s = doc["extw"], doc["exts"]
    lines.append(f"extw: free_rank={w['free_rank']} torsion={w['torsion']}")
    lines.append(f"  toeplitz_weak: {_render_element(w['toeplitz_weak'])}")
    lines.append(f"exts: free_rank={s['free_rank']} torsion={s['torsion']}")
    lines.append(f"  toeplitz_strong: {_render_element(s['toeplitz_strong'])}")
    lines.append(f"  iota_one: {_render_element(s['iota_one'])}")
    lines.append(f"det_i_minus_a: {doc['det_i_minus_a']}")
    lines.append(f"iota_kernel_generator: {doc['iota_kernel_generator']}")
    if "verification" in doc:
        lines += render_verification_text(doc["verification"]).splitlines()
    return "\n".join(lines) + "\n"


def render_verification_text(doc: dict) -> str:
    lines = [f"im0_identity: {doc['im0_identity']}"]
    for key, val in doc["exact_sequence"].items():
        lines.append(f"exact_sequence.{key}: {val}")
    lines.append(f"toeplitz_m_independence: {doc['toeplitz_m_independence']}")
    lines.append(f"hat_q_commutation: {doc['hat_q_commutation']}")
    lines.append(f"kernel_sum_generator: {doc['kernel_sum_generator']}")
    return "\n".join(lines) + "\n"


def _emit(doc: dict, fmt: str, text_renderer) -> None:
    if fmt == "structured":
        sys.stdout.write(json.dumps(doc) + "\n")
    else:
        sys.stdout.write(text_renderer(doc))


def cmd_compute(args) -> int:
    rep = invariants_report(load_matrix(args.path, use_transpose=args.transpose,
                                        force=args.force))
    verification = verification_document(rep) if args.verify else None
    doc = report_document(rep, verification=verification)
    _emit(doc, args.format, render_report_text)
    return EXIT_OK


def cmd_compare(args) -> int:
    a = load_matrix(args.path_a)
    b = load_matrix(args.path_b)
    pair_a, pair_b = transposed_weak_pair(a), transposed_weak_pair(b)
    verdict = marked_isomorphic(pair_a, pair_b)
    doc = {
        "a": {"matrix": [list(r) for r in a.entries],
              "transposed_weak_pair": {**_group_doc(pair_a.group),
                                       "marker": _element_doc(pair_a.markers[0])}},
        "b": {"matrix": [list(r) for r in b.entries],
              "transposed_weak_pair": {**_group_doc(pair_b.group),
                                       "marker": _element_doc(pair_b.markers[0])}},
        "isomorphic": verdict,
    }

    def text(d):
        out = []
        for key in ("a", "b"):
            pair = d[key]["transposed_weak_pair"]
            out.append(f"{key}: free_rank={pair['free_rank']} torsion={pair['torsion']} "
                       f"marker {_render_element(pair['marker'])}")
        out.append("isomorphic: " + ("yes" if d["isomorphic"] else "no"))
        return "\n".join(out) + "\n"

    _emit(doc, args.format, text)
    return EXIT_OK if verdict else EXIT_NOT_ISOMORPHIC


def cmd_verify(args) -> int:
    rep = invariants_report(load_matrix(args.path))
    doc = verification_document(rep)
    doc["det_i_minus_a"] = rep.det_i_minus_a
    ok = _verification_passed(doc)
    doc["all_passed"] = ok

    def text(d):
        body = render_verification_text(d)
        return body + f"det_i_minus_a: {d['det_i_minus_a']}\nall_passed: {d['all_passed']}\n"

    _emit(doc, args.format, text)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_examples(args) -> int:
    results = []
    for entry in CORPUS:
        rep = invariants_report(validate(entry.rows))
        weak_pair = MarkedGroup(rep.extw_group, (rep.toeplitz_weak,))
        strong_triple = MarkedGroup(rep.exts_group, (rep.toeplitz_strong, rep.iota_one))
        checks = (
            ("weak pair", weak_pair, entry.weak),
            ("strong triple", strong_triple, entry.strong),
        )
        for what, computed, expected in checks:
            ok = marked_isomorphic(computed, expected.build())
            results.append({"name": entry.name, "check": what,
                            "expected": expected.label(), "passed": ok})
    all_ok = all(r["passed"] for r in results)

    if args.format == "structured":
        sys.stdout.write(json.dumps({"results": results, "all_passed": all_ok}) + "\n")
    else:
        for r in results:
            status = "PASS" if r["passed"] else "FAIL"
            sys.stdout.write(f"{status}  {r['name']}: {r['check']} matches {r['expected']}\n")
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="ckext",
        description="Exact extension-group invariants of Cuntz-Krieger algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("structured", "text"), default="structured",
                       help="output format (default: structured JSON)")

    p = sub.add_parser("compute", help="invariant report for one matrix file")
    p.add_argument("path")
    p.add_argument("--transpose", action="store_true",
                   help="compute on the transposed matrix")
    p.add_argument("--force", action="store_true",
                   help="skip irreducibility/non-permutation validation")
    p.add_argument("--verify", action="store_true",
                   help="include verification booleans in the report")
    add_format(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("compare", help="decide isomorphism of two algebras")
    p.add_argument("path_a")
    p.add_argument("path_b")
    add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run lattice and exact-sequence verifiers")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="run the embedded regression corpus")
    add_format(p)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError, TorsionTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
