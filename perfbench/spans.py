"""Per-layer tracing from outside the program.

``install`` replaces each listed public function of ``toricqh`` with a wrapper
that records a span (function, start, end, parent span) in memory.  A
function imported by name into other modules (``enumerate_vertices`` is bound
in ``polyhedra``, ``presentation``, ``topology``, ``monoid`` and ``catalog``)
is replaced at every binding site, found by identity, so no call escapes.
Nothing here names a cache of the program: wrapping a cached function counts
its cache hits as calls, which is what a caller pays for.

``summarize`` turns the spans of one op into counts and self times.  A span's
self time is its duration minus the durations of its direct children; calls
are strictly nested in one thread, so the children never overlap.

``layer_metrics`` sums them over a run into the per-layer metrics:
``<target>.calls`` and ``<target>.self_s`` for every target, ``<module>.self_s``
per module, ``.cells`` (rows times columns of the input matrix) for the
Hermite form and ``solve_rational``, ``linalg.Eliminator.add_row.useful_ratio``
(rows that grew the rank over rows added), ``monoid.monomial_hit_ratio``
(``monomial`` lookups that needed no ``decompose`` over all lookups), and
``jacobian.escalations`` and ``jacobian.dim_s`` summed from the returned
reports.  ``run.py`` adds ``trace.overhead_ratio``, traced over untraced op
wall time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

MODULES = ("cli", "polyhedra", "lp", "linalg", "monoid", "topology",
           "presentation", "jacobian")

TARGETS = (
    "cli.main",
    "polyhedra.parse_polyhedron",
    "polyhedra.enumerate_vertices",
    "polyhedra.is_compact",
    "polyhedra.minimal_nonfaces",
    "polyhedra.check_delzant",
    "lp.solve",
    "linalg.hermite_normal_form",
    "linalg.smith_normal_form",
    "linalg.solve_rational",
    "linalg.rank",
    "linalg.Eliminator.add_row",
    "monoid.ConeMonoid.monomial",
    "monoid.ConeMonoid.decompose",
    "monoid.enumerate_gamma_degree",
    "topology.reduced_homology",
    "topology.reisner_cm_check",
    "topology.regular_sequence_check",
    "presentation.classical_presentation",
    "presentation.quantum_presentation",
    "presentation.reduce_to_basis",
    "presentation.divisor_inverse_certificate",
    "presentation.basis_independence_audit",
    "jacobian.jacobian_freeness",
)


def _cells(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# Counters summed at the same boundaries: target -> [(counter, value of the
# call's arguments and result)].
HOOKS = {
    "linalg.hermite_normal_form": [
        ("linalg.hermite_normal_form.cells", lambda a, r: _cells(a[0]))],
    "linalg.solve_rational": [
        ("linalg.solve_rational.cells", lambda a, r: _cells(a[0]))],
    "linalg.Eliminator.add_row": [
        ("linalg.Eliminator.add_row.useful", lambda a, r: int(bool(r)))],
    "jacobian.jacobian_freeness": [
        ("jacobian.escalations", lambda a, r: getattr(r, "escalations", 0)),
        ("jacobian.dim_s", lambda a, r: getattr(r, "dim_s", 0))],
}
COUNTERS = tuple(name for hooks in HOOKS.values() for name, _ in hooks)


class Recorder:
    """Spans of one op, kept in flat arrays: target index, start, end and
    the index of the enclosing span (-1 for the root)."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, fid, fn, hooks):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for name, value in hooks:
                counters[name] += value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def export(self):
        return {"fid": self.fid.tobytes(), "parent": self.parent.tobytes(),
                "start": self.start.tobytes(), "end": self.end.tobytes(),
                "counters": dict(self.counters)}


def install(recorder: Recorder):
    """Wrap every target at every binding site.

    A target missing from the program (renamed or removed) is skipped and
    reports zero calls.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "toricqh" or name.startswith("toricqh.")]
    for fid, target in enumerate(TARGETS):
        mod_name, *path = target.split(".")
        try:
            owner = importlib.import_module(f"toricqh.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            orig = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            continue
        wrapper = recorder.wrap(fid, orig, HOOKS.get(target, ()))
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)


def load(exported):
    """Inverse of ``Recorder.export``: (fid, parent, start, end, counters)."""
    arrays = []
    for key, code in (("fid", "i"), ("parent", "i"), ("start", "d"),
                      ("end", "d")):
        a = array(code)
        a.frombytes(exported[key])
        arrays.append(a)
    return (*arrays, exported["counters"])


def to_json(exported):
    """Spans of one op as lists, times in integer ns from its first span."""
    fid, parent, start, end, _ = load(exported)
    t0 = start[0] if start else 0.0
    return {"fid": list(fid), "parent": list(parent),
            "start": [round((t - t0) * 1e9) for t in start],
            "end": [round((t - t0) * 1e9) for t in end]}


def summarize(exported):
    """Calls and self seconds per target, plus the counters, for one op."""
    fid, parent, start, end, counters = load(exported)
    n = len(fid)
    dur = [end[i] - start[i] for i in range(n)]
    self_s = list(dur)
    monomial = _index("monoid.ConeMonoid.monomial")
    decompose = _index("monoid.ConeMonoid.decompose")
    misses = 0
    for i in range(n):
        p = parent[i]
        if p >= 0:
            self_s[p] -= dur[i]
            if fid[i] == decompose and fid[p] == monomial:
                misses += 1
    calls = [0] * len(TARGETS)
    selfs = [0.0] * len(TARGETS)
    for i in range(n):
        calls[fid[i]] += 1
        selfs[fid[i]] += self_s[i]
    return {"calls": calls, "self_s": selfs, "monomial_misses": misses,
            "counters": counters}


def _index(target):
    return TARGETS.index(target)


def layer_metrics(summaries):
    """Per-layer metrics, as (value, unit), summed over the ops of a run."""
    calls = [0] * len(TARGETS)
    selfs = [0.0] * len(TARGETS)
    counters = dict.fromkeys(COUNTERS, 0)
    misses = 0
    for s in summaries:
        for k in range(len(TARGETS)):
            calls[k] += s["calls"][k]
            selfs[k] += s["self_s"][k]
        for name in COUNTERS:
            counters[name] += s["counters"].get(name, 0)
        misses += s["monomial_misses"]
    out = {}
    for k, target in enumerate(TARGETS):
        out[f"{target}.calls"] = (calls[k], "count")
        out[f"{target}.self_s"] = (selfs[k], "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (sum(
            selfs[k] for k, t in enumerate(TARGETS)
            if t.split(".")[0] == module), "s")
    out["linalg.hermite_normal_form.cells"] = (
        counters["linalg.hermite_normal_form.cells"], "count")
    out["linalg.solve_rational.cells"] = (
        counters["linalg.solve_rational.cells"], "count")
    rows = calls[_index("linalg.Eliminator.add_row")]
    out["linalg.Eliminator.add_row.useful_ratio"] = (
        counters["linalg.Eliminator.add_row.useful"] / rows if rows else 0.0,
        "ratio")
    lookups = calls[_index("monoid.ConeMonoid.monomial")]
    out["monoid.monomial_hit_ratio"] = (
        (lookups - misses) / lookups if lookups else 0.0, "ratio")
    out["jacobian.escalations"] = (counters["jacobian.escalations"], "count")
    out["jacobian.dim_s"] = (counters["jacobian.dim_s"], "count")
    return out
