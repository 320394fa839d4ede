"""Per-layer spans around the public functions of ncjets, from outside the package.

``install(nc, log)`` wraps each target and returns a function that
restores the originals.  A module-level function is rebound in every ``ncjets``
module namespace that holds it, because ``from .linalg import
closure_under`` makes a separate binding; methods are patched on their
class.  Spans (name, start, end, parent, work counts) go into compact
arrays in memory; ``aggregate`` turns one pass's spans into per-layer
numbers, where a layer's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


def _shape_cells(shape) -> int:
    rows, cols = shape
    return rows * cols


def _rref_counts(args, out):
    m = args[0]
    return _shape_cells(m.shape), out.rank, m.rows


def _out_cells(args, out):
    return _shape_cells(getattr(out, "shape", (0, 0))), 0, 0


def _in_cells(args, out):
    return int(np.asarray(args[1], dtype=object).size), 0, 0


def _cells(args, out):
    return int(args[1].size), 0, 0


def _bytes(args, out):
    return len(out), 0, 0


# (span name, module, attribute path, kind, counter, extra stats)
# kind: "function" (module attribute), "method", "classmethod", "cached" (cached_property)
TARGETS = [
    ("linalg.rref", "linalg", "rref", "function", _rref_counts, ("in_cells", "rank_frac")),
    ("linalg.kernel", "linalg", "kernel", "function", None, ()),
    ("linalg.joint_kernel", "linalg", "joint_kernel", "function", None, ()),
    ("linalg.preimage", "linalg", "preimage", "function", None, ()),
    ("linalg.closure_under", "linalg", "closure_under", "function", None, ()),
    ("linalg.Subspace.from_spanning", "linalg", "Subspace.from_spanning", "classmethod", None, ()),
    ("linalg.Subspace.contains_all", "linalg", "Subspace.contains_all", "method", _in_cells, ("in_cells",)),
    ("linalg.Subspace.quotient", "linalg", "Subspace.quotient", "method", None, ()),
    ("linalg.Subspace.intersect", "linalg", "Subspace.__and__", "method", None, ()),
    ("linalg.Matrix.matmul", "linalg", "Matrix.__matmul__", "method", _out_cells, ("out_cells",)),
    ("linalg.Matrix.kron", "linalg", "Matrix.kron", "method", _out_cells, ("out_cells",)),
    ("linalg.demote_array", "linalg", "RationalField.demote_array", "method", _cells, ("cells",)),
    ("linalg.demote_array", "linalg", "PrimeField.demote_array", "method", _cells, ("cells",)),
    ("algebra.Algebra.init", "algebra", "Algebra.__init__", "method", None, ()),
    ("algebra.Algebra.center", "algebra", "Algebra.center", "cached", None, ()),
    ("algebra.Algebra.derivations", "algebra", "Algebra.derivations", "cached", None, ()),
    ("modules.BimoduleRep.init", "modules", "BimoduleRep.__init__", "method", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.left", "cached", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.bullet_left", "cached", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.right", "cached", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.bullet_right", "cached", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.deltas", "cached", None, ()),
    ("modules.HomSpace.actions", "modules", "HomSpace.delta_bars", "cached", None, ()),
    ("modules.TensorOneSided.init", "modules", "TensorOneSided.__init__", "method", None, ()),
    ("modules.TensorTwoSided.init", "modules", "TensorTwoSided.__init__", "method", None, ()),
    ("diffop.filtration_by_tag", "diffop", "filtration_by_tag", "function", None, ()),
    ("diffop.diff_bar1", "diffop", "diff_bar1", "function", None, ()),
    ("diffop.compare_definitions", "diffop", "compare_definitions", "function", None, ()),
    ("jets.jet_module", "jets", "jet_module", "function", None, ()),
    ("jets.two_sided_jet1", "jets", "two_sided_jet1", "function", None, ()),
    ("jets.representability_check", "jets", "representability_check", "function", None, ()),
    ("jets.representability_bar1", "jets", "representability_bar1", "function", None, ()),
    ("jets.residual_witness_search", "jets", "residual_witness_search", "function", None, ()),
    ("documents.canonical_json", "documents", "canonical_json", "function", _bytes, ("bytes",)),
    ("documents.subspace_to_doc", "documents", "subspace_to_doc", "function", None, ()),
    ("documents.algebra_from_doc", "documents", "algebra_from_doc", "function", None, ()),
    ("documents.module_from_doc", "documents", "module_from_doc", "function", None, ()),
    ("cli.run", "cli", "run", "function", None, ()),
]

# Spans whose total time equals their self time (no wrapped callee), or
# whose total is not asked for, report only calls and self time.
_NO_TOTAL = {
    "linalg.Subspace.contains_all",
    "linalg.Matrix.matmul",
    "linalg.Matrix.kron",
    "linalg.demote_array",
    "documents.canonical_json",
    "documents.subspace_to_doc",
    "documents.algebra_from_doc",
    "documents.module_from_doc",
}

SPAN_NAMES = list(dict.fromkeys(t[0] for t in TARGETS))
_EXTRA = {t[0]: t[5] for t in TARGETS}

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "rank_frac": "ratio", "bytes": "B"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for name in SPAN_NAMES:
        stats = ["calls", "self_s"]
        if name not in _NO_TOTAL:
            stats.append("total_s")
        stats += list(_EXTRA[name])
        out += [(f"{name}.{s}", _UNITS.get(s, "count")) for s in stats]
    return out


class SpanLog:
    """Spans of the current traced pass, one row per call."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.c0 = array("q")
        self.c1 = array("q")
        self.c2 = array("q")
        self.stack: list[int] = []
        self.active = [0] * len(SPAN_NAMES)

    def __len__(self):
        return len(self.name)

    def rows(self) -> list:
        """(name, start, end, parent) of every span, for writing out."""
        return [
            [SPAN_NAMES[self.name[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self))
        ]


def _wrap(log: SpanLog, nid: int, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(log.name)
        log.name.append(nid)
        log.parent.append(log.stack[-1] if log.stack else -1)
        log.nested.append(1 if log.active[nid] else 0)
        log.start.append(0.0)
        log.end.append(0.0)
        log.c0.append(0)
        log.c1.append(0)
        log.c2.append(0)
        log.stack.append(idx)
        log.active[nid] += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            log.active[nid] -= 1
            log.stack.pop()
            log.start[idx] = t0
            log.end[idx] = t1
        if counter is not None:
            log.c0[idx], log.c1[idx], log.c2[idx] = counter(args, out)
        return out

    return traced


def install(nc, log: SpanLog):
    """Wrap every target; returns a function that puts the originals back."""
    undo = []
    namespaces = [m for n, m in sys.modules.items() if n == "ncjets" or n.startswith("ncjets.")]
    for span, modname, path, kind, counter, _ in TARGETS:
        nid = SPAN_NAMES.index(span)
        module = getattr(nc, modname)
        if kind == "function":
            original = getattr(module, path)
            wrapped = _wrap(log, nid, original, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, original))
            continue
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        if kind == "method":
            replacement = _wrap(log, nid, original, counter)
        elif kind == "classmethod":
            replacement = classmethod(_wrap(log, nid, original.__func__, counter))
        else:
            replacement = functools.cached_property(_wrap(log, nid, original.func, counter))
            replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)
        undo.append((cls, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def aggregate(log: SpanLog) -> dict:
    """Per-span-name sums over one pass: calls, self_s, total_s and work counts."""
    k = len(SPAN_NAMES)
    calls = [0] * k
    total = [0.0] * k
    self_s = [0.0] * k
    c0 = [0] * k
    c1 = [0] * k
    c2 = [0] * k
    n = len(log)
    child = [0.0] * n
    name, start, end, parent, nested = log.name, log.start, log.end, log.parent, log.nested
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    for i in range(n):
        j = name[i]
        dur = end[i] - start[i]
        calls[j] += 1
        self_s[j] += dur - child[i]
        if not nested[i]:
            total[j] += dur
        c0[j] += log.c0[i]
        c1[j] += log.c1[i]
        c2[j] += log.c2[i]
    return {
        SPAN_NAMES[j]: {
            "calls": calls[j],
            "self_s": self_s[j],
            "total_s": total[j],
            "counts": (c0[j], c1[j], c2[j]),
        }
        for j in range(k)
    }


def per_layer_metrics(passes: list[dict]) -> dict:
    """Per-pass means of the aggregated spans, named <module>.<function>.<stat>."""
    npass = len(passes)
    values = {}
    for name in SPAN_NAMES:
        c = [sum(p[name]["counts"][i] for p in passes) for i in range(3)]
        for stat in ("calls", "self_s", "total_s"):
            values[f"{name}.{stat}"] = sum(p[name][stat] for p in passes) / npass
        for stat in _EXTRA[name]:
            if stat == "rank_frac":
                # rank gained per row eliminated: the useful-work ratio of rref
                values[f"{name}.{stat}"] = c[1] / c[2] if c[2] else 0.0
            else:
                values[f"{name}.{stat}"] = c[0] / npass
    return {key: {"value": values[key], "unit": unit} for key, unit in metric_names()}
