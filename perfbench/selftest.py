"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 perfbench/selftest.py

It runs ckext on a few small matrices, confirms that the checks accept the
genuine outputs, then tampers with each output in one way and confirms that
the matching check rejects it.  Exit code 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from ckext import cli  # noqa: E402

# det(I - A) = -3, weak group Z/3, strong group Z: the README's example.
A1 = ((0, 0, 1), (1, 0, 1), (1, 1, 1))


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


def classify_draw(rng: random.Random) -> inputs.Rows:
    """A draw whose transposed weak group is non-cyclic with |T| <= 256."""
    while True:
        rows = inputs.draw_dense(rng, 10)
        m = inputs.identity_minus(rows)
        order = abs(inputs.bareiss_det(m))
        if 4 <= order <= checks.BRUTEFORCE_MAX_ORDER and len(inputs.torsion_factors(m, order)) > 1:
            return rows


def main() -> int:
    workdir = ROOT / "perfbench" / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(7)
    a = classify_draw(rng)
    b = inputs.permuted(a, rng)
    paths = {}
    for name, rows in (("a1", A1), ("a", a), ("b", b)):
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))

    compute = run_cli(["compute", str(paths["a1"])])
    verify = run_cli(["verify", str(paths["a1"])])
    compare = run_cli(["compare", str(paths["a"]), str(paths["b"])])
    swapped = run_cli(["compare", str(paths["b"]), str(paths["a"])])
    examples = run_cli(["examples"])
    perm_op = inputs.Op("compare", ("a", "b"), permuted_copy=True)
    plain_op = inputs.Op("compare", ("a", "b"))
    group_ops = (inputs.Op("compare", ("a", "b"), group="g"),
                 inputs.Op("compare", ("b", "a"), group="g"))

    def tampered(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return doc

    def flip(doc):
        doc["isomorphic"] = not doc["isomorphic"]

    def bump_torsion(doc):
        doc["extw"]["torsion"][-1] += 1

    def negate_strong(doc):
        doc["exts"]["toeplitz_strong"]["free"][0] *= -1

    def break_sequence(doc):
        doc["exact_sequence"]["exact_at_kernel"] = False

    def break_identity(doc):
        doc["im0_identity"] = False

    def fail_example(doc):
        doc["results"][0]["passed"] = False

    # (what, errors found, None if the output must pass, else a fragment of
    # the error the tampering must raise)
    cases = [
        ("genuine compute", checks.check_compute(A1, compute), None),
        ("genuine verify", checks.check_verify(A1, verify), None),
        ("genuine compare", checks.check_compare(a, b, compare), None),
        ("genuine verdicts", checks.check_verdicts(
            [(perm_op, compare), (group_ops[0], compare), (group_ops[1], swapped)]), None),
        ("genuine examples", checks.check_examples(examples), None),
        ("weak torsion factor changed",
         checks.check_compute(A1, tampered(compute, bump_torsion)), "extw: group"),
        ("sign of the free-part ratio flipped",
         checks.check_compute(A1, tampered(compute, negate_strong)), "-det(I-A+J)"),
        ("permuted-copy verdict flipped",
         checks.check_verdicts([(perm_op, tampered(compare, flip))]), "permuted copy"),
        ("verdict flipped against brute force",
         checks.check_verdicts([(plain_op, tampered(compare, flip))]), "brute force"),
        ("verdict flipped under swap",
         checks.check_verdicts([(group_ops[0], compare),
                                (group_ops[1], tampered(swapped, flip))]), "under swap"),
        ("exact-sequence boolean set false",
         checks.check_verify(A1, tampered(verify, break_sequence)), "exact_at_kernel"),
        ("lattice identity boolean set false",
         checks.check_verify(A1, tampered(verify, break_identity)), "im0_identity"),
        ("examples entry set failed",
         checks.check_examples(tampered(examples, fail_example)), "examples: failed"),
    ]
    bad = 0
    for what, errors, expected in cases:
        if expected is None:
            ok = not errors
        else:
            ok = any(expected in e for e in errors)
        bad += not ok
        print(f"{'ok' if ok else 'WRONG':5} {what}: {'rejected' if errors else 'accepted'}"
              + "".join(f"\n      {e}" for e in errors))
    for p in paths.values():
        p.unlink()
    workdir.rmdir()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
