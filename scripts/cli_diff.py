"""Differences in ckext's command-line output between two source trees.

    python3 scripts/cli_diff.py PARENT CHANGE [--seed S]

PARENT and CHANGE are checkouts of this repository.  For each tree, in this
one process, ckext is imported afresh from TREE/src and cli.main runs every
op of the three pools of CHANGE/perfbench/inputs.py at seed S (default 1),
then ``examples`` and ``compare`` over every ordered pair of corpus entries,
each once with structured output and once with ``--format text``, with
stdout captured.  inputs.py is only read; the matrices are written to a
temporary directory.

Each op whose exit code or stdout differs is printed.  For a compute
document the differing top-level keys are named, and when ``exts`` differs
it is classed as "coordinates only" (same free rank and torsion, and
marked-isomorphic (toeplitz_strong, iota_one) pairs, built with CHANGE's
marked_group) or "group differs".  The last line counts ops and differences;
the exit code is 0 when no op differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path


def load_ckext(tree: Path):
    """ckext.cli imported afresh from tree/src."""
    for name in [n for n in sys.modules if n == "ckext" or n.startswith("ckext.")]:
        del sys.modules[name]
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("ckext.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ckext imported from {cli.__file__}, not from {src}")
    return cli


def load_inputs(tree: Path):
    path = tree / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def write_matrix(path: Path, rows) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def run(cli, argv: list[str]) -> tuple[object, str]:
    """(exit code, stdout) of one cli.main call; an exception that escapes
    it is reported as its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is an output too
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def build_ops(change: Path, seed: int, workdir: Path) -> dict[str, list[str]]:
    """Every op to run, by a readable key: the pools' ops, then examples and
    compare over every ordered pair of corpus entries, in both formats."""
    inputs = load_inputs(change)
    ops = {}
    for pool_name, make in inputs.POOLS.items():
        pool = make(random.Random(seed))
        paths = {name: write_matrix(workdir / pool_name / f"{name}.txt", rows)
                 for name, rows in pool.matrices.items()}
        for op in pool.ops:
            ops[f"{pool_name}: {op.command} {' '.join(op.paths)}"] = \
                [op.command, *(paths[p] for p in op.paths)]
    load_ckext(change)
    corpus = importlib.import_module("ckext.corpus").CORPUS
    paths = {e.name: write_matrix(workdir / "corpus" / f"{e.name}.txt", e.rows) for e in corpus}
    for fmt in ([], ["--format", "text"]):
        suffix = " ".join(["", *fmt])
        ops[f"corpus: examples{suffix}"] = ["examples", *fmt]
        for a, b in itertools.product(paths, repeat=2):
            ops[f"corpus: compare {a} {b}{suffix}"] = ["compare", paths[a], paths[b], *fmt]
    return ops


def exts_kind(markediso, old: dict, new: dict) -> str:
    """"coordinates only" when the two strong-group documents describe the
    same group with marked-isomorphic (toeplitz_strong, iota_one) pairs."""
    if (old["free_rank"], old["torsion"]) != (new["free_rank"], new["torsion"]):
        return "group differs"

    def pair(doc):
        markers = [doc[k]["free"] + doc[k]["torsion"] for k in ("toeplitz_strong", "iota_one")]
        return markediso.marked_group(doc["free_rank"], doc["torsion"], markers)

    same = markediso.marked_isomorphic(pair(old), pair(new))
    return "coordinates only" if same else "group differs"


def describe(markediso, argv: list[str], old: tuple, new: tuple) -> str:
    if old[0] != new[0]:
        return f"exit code {old[0]!r} -> {new[0]!r}"
    if argv[0] != "compute":
        return "stdout differs"
    try:
        a, b = json.loads(old[1]), json.loads(new[1])
    except ValueError:
        return "stdout differs"
    keys = [k for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
    notes = [f"exts: {exts_kind(markediso, a['exts'], b['exts'])}" if k == "exts" else k
             for k in sorted(keys)]
    return "; ".join(notes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        ops = build_ops(args.change, args.seed, Path(tmp))
        outputs = []
        for tree in (args.parent, args.change):
            cli = load_ckext(tree)
            outputs.append({key: run(cli, argv) for key, argv in ops.items()})
    markediso = importlib.import_module("ckext.markediso")  # CHANGE's
    kinds: dict[str, int] = {}
    for key, argv in ops.items():
        old, new = outputs[0][key], outputs[1][key]
        if old != new:
            note = describe(markediso, argv, old, new)
            kinds[note] = kinds.get(note, 0) + 1
            print(f"{key}: {note}")
    summary = ", ".join(f"{n} {note}" for note, n in sorted(kinds.items())) or "none"
    print(f"seed {args.seed}: {len(ops)} ops, {sum(kinds.values())} differ ({summary})")
    return 1 if kinds else 0


if __name__ == "__main__":
    sys.exit(main())
