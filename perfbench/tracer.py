"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the diagres layers from outside the
package.  A wrapped function is rebound in every loaded ``diagres.*`` module
namespace that holds the same object, because modules import each other's
functions by name (``from .groebner import buchberger``); methods are
wrapped on their class.  A target that no longer exists is recorded as
missing instead of raising, so the benchmark survives refactors of the
program and reports what it could not see.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; ``dump`` writes them out once the worker is done, and ``Aggregate``
turns dumps into per-name counts, inclusive busy time and self time.
Untraced runs install nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute path, span name); attribute paths with a dot are methods.
TARGETS = [
    ("diagres.cli", "main", "cli.main"),
    ("diagres.jobio", "load_job", "jobio.load_job"),
    ("diagres.report", "VerificationReport.to_json", "report.VerificationReport.to_json"),
    ("diagres.catalog", "build_affine_line", "catalog.build_affine_line"),
    ("diagres.catalog", "build_nodal_conic", "catalog.build_nodal_conic"),
    ("diagres.catalog", "build_nodal_conic_product", "catalog.build_nodal_conic_product"),
    ("diagres.catalog", "build_cycle", "catalog.build_cycle"),
    ("diagres.catalog", "verify_entry", "catalog.verify_entry"),
    ("diagres.catalog", "verify_chart_jobs", "catalog.verify_chart_jobs"),
    ("diagres.resolutions", "resolve_cyclic", "resolutions.resolve_cyclic"),
    ("diagres.resolutions", "lift_module_map", "resolutions.lift_module_map"),
    ("diagres.resolutions", "nullhomotopy", "resolutions.nullhomotopy"),
    ("diagres.resolutions", "totalize_chain", "resolutions.totalize_chain"),
    ("diagres.witness", "verify_witness", "witness.verify_witness"),
    ("diagres.complexes", "verify_diagonal_qiso", "complexes.verify_diagonal_qiso"),
    ("diagres.complexes", "exact_everywhere", "complexes.exact_everywhere"),
    ("diagres.complexes", "minimize", "complexes.minimize"),
    ("diagres.groebner", "buchberger", "groebner.buchberger"),
    ("diagres.groebner", "syzygies", "groebner.syzygies"),
    ("diagres.groebner", "member", "groebner.member"),
    ("diagres.groebner", "normal_form", "groebner.normal_form"),
    ("diagres.groebner", "ImageSolver.__init__", "groebner.ImageSolver.init"),
    ("diagres.groebner", "ImageSolver.solve", "groebner.ImageSolver.solve"),
]

ROOT = "op"

# Targets whose calls are counted but not timed.  normal_form runs about
# 170k times per catalog-cold operation and 28k times per job-stream
# operation, at a few microseconds each; a timed wrapper costs 1.6 us per
# call, which would inflate its own busy time by about a third and the
# operation by 4-7 %.
COUNT_ONLY = {"groebner.normal_form"}


def _total_rank(cx):
    return sum(cx.ranks.values())


# Values observed per call, as name -> fn(args, result).  The function may
# raise if a refactor changes the shape it reads; the value is then missing.
OBSERVERS = {
    "groebner.buchberger": {"basis_size": lambda a, r: len(r.vectors)},
    "complexes.minimize": {"rank_in": lambda a, r: _total_rank(a[0]),
                           "rank_out": lambda a, r: _total_rank(r[0])},
}


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: "Tracer", nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.observed: dict = {}   # "name.key" -> list of values
        self.counts: dict = {}     # COUNT_ONLY name -> [calls]
        self.missing: list = []    # targets or observers that could not be read

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        observers = OBSERVERS.get(name, {})
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            for key, obs in observers.items():
                self._observe(f"{name}.{key}", obs, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observe(self, key, obs, args, result):
        try:
            value = obs(args, result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError):
            if key not in self.missing:
                self.missing.append(key)
            return
        self.observed.setdefault(key, []).append(value)

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the others as missing."""
        for modname, attr, name in targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = module
            if owner:
                holder = getattr(module, owner, None)
                if not isinstance(holder, type):
                    self.missing.append(name)
                    continue
            original = holder.__dict__.get(leaf) if owner else getattr(holder, leaf, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapped = (self.count if name in COUNT_ONLY else self.wrap)(name, original)
            if owner:
                setattr(holder, leaf, wrapped)
                continue
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "") or ""
                if mname != "diagres" and not mname.startswith("diagres."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str):
        """Write spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "observed": self.observed, "missing": self.missing,
                  "counts": {k: v[0] for k, v in self.counts.items()}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


class Aggregate:
    """Per-name totals over one or more span dumps."""

    def __init__(self):
        self.calls: dict = {}
        self.busy: dict = {}       # inclusive; a recursive call counts once
        self.self_time: dict = {}  # duration minus wrapped children
        self.observed: dict = {}
        self.missing: set = set()
        self.nesting_errors = 0    # child outside its parent, or negative self

    def add(self, path: str):
        header, (name_id, parent, start, end) = load(path)
        names = header["names"]
        self.missing.update(header["missing"])
        for name, calls in header["counts"].items():
            self.calls[name] = self.calls.get(name, 0) + calls
        for key, values in header["observed"].items():
            self.observed.setdefault(key, []).extend(values)
        n = len(start)
        child_time = [0.0] * n
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child_time[p] += dur
                if start[i] < start[p] or end[i] > end[p]:
                    self.nesting_errors += 1
        for i in range(n):
            name = names[name_id[i]]
            dur = end[i] - start[i]
            own = dur - child_time[i]
            if own < -1e-9:
                self.nesting_errors += 1
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            p = parent[i]
            while p >= 0 and name_id[p] != name_id[i]:
                p = parent[p]
            if p < 0:
                self.busy[name] = self.busy.get(name, 0.0) + dur

    def layer_self_time(self) -> float:
        return sum(t for name, t in self.self_time.items() if name != ROOT)

    def reconcile(self, wall: float):
        """(unattributed seconds, ok) for operations of the given total wall
        time, measured outside the spans.  Layer self times plus the
        unattributed remainder make up the wall time; the split holds only
        if every span lies inside its parent, no self time is negative and
        the layers do not exceed the wall time."""
        unattributed = wall - self.layer_self_time()
        return unattributed, self.nesting_errors == 0 and unattributed >= 0.0

    def observed_median(self, key: str) -> float:
        values = self.observed.get(key)
        return float(statistics.median(values)) if values else 0.0

    def observed_mean(self, key: str) -> float:
        values = self.observed.get(key)
        return float(statistics.fmean(values)) if values else 0.0
