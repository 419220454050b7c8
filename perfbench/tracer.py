"""Per-layer spans, recorded from outside the package.

``Tracer.install`` wraps every public function of the layer modules, plus
``IntMatrix.__matmul__`` and ``FgAbelianGroup.class_of``, and rebinds each
wrapped name in every ckext module that holds it (``fgab.snf``,
``markediso.hnf_columns``, ...), so calls between modules are caught too.
Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of the spans it directly encloses; calls run on one
thread, so those never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("exactmat", "fgab", "invariants", "markediso", "cli")
METHODS = (("exactmat", "IntMatrix", "__matmul__", "exactmat.matmul"),
           ("fgab", "FgAbelianGroup", "class_of", "fgab.class_of"))


def _transform_bits(args, result) -> int:
    if result is None:  # snf raised
        return 0
    return max((abs(x).bit_length() for t in (result.u, result.v)
                for row in t.entries for x in row), default=0)


def _torsion_order(args, result) -> int:
    """|T| of the first group, also when the search refuses it."""
    return math.prod(args[0].group.torsion)


# Sizes that drive cost, recorded with the spans of these functions.
SIZES = {"exactmat.snf": _transform_bits,
         "markediso.marked_isomorphic": _torsion_order}


class Tracer:
    def __init__(self):
        # (name, op, parent span, start_ns, end_ns, self_ns, size)
        self.spans: list[tuple | None] = []
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_of = SIZES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append([idx, 0])
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += end - start
                size = size_of(args, result) if size_of else 0
                spans[idx] = (name, self.op, parent, start, end, end - start - child, size)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "ckext" or n.startswith("ckext.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ckext.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._set(mod, attr, wrapped[id(value)][1])
        for layer, cls, attr, name in METHODS:
            owner = getattr(sys.modules[f"ckext.{layer}"], cls)
            self._set(owner, attr, self._wrap(name, vars(owner)[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, summed self time and the largest size."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0,
                                                               "max_size": 0})
        for name, _, _, _, _, self_ns, size in self.spans:
            t = out[name]
            t["calls"] += 1
            t["self_ns"] += self_ns
            t["max_size"] = max(t["max_size"], size)
        return out

    def write(self, path, **meta):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {**meta, "fields": ["name", "op", "parent", "start_ns", "end_ns", "self_ns", "size"],
               "names": names, "spans": [[index[s[0]], *s[1:]] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
