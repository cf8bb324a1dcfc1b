"""Span tracing of graphideals' public functions, installed from outside.

A :class:`Tracer` replaces each traced function with a timing wrapper
wherever a graphideals module binds it.  Patching every binding, and not
only the defining module, is what catches calls made through
``from .graphs import cover_decomposition``-style imports: ``cli`` and
``verify`` look such names up in their own globals.  ``kernels.*`` is
looked up through the ``kernels`` module at call time, so patching that
module's attribute is enough.  Methods are patched on their class.

Spans are aggregated in memory by call path: the tuple of traced names
from the request root down to the span.  For every path the tracer keeps
the call count, the inclusive time and the self time (inclusive minus
the time covered by traced child spans), so per-layer self times add up
to the traced wall time.
"""

import functools
import importlib
import time

MODULES = ("cli", "graphs", "decompose", "monomials", "kernels", "classify", "verify")

# (module, attribute or Class.method) of every traced function.
TARGETS = (
    ("graphs", "validate_graph"),
    ("graphs", "weighted_edge_ideal"),
    ("graphs", "edge_ideal"),
    ("graphs", "cover_decomposition"),
    ("graphs", "enumerate_minimal_covers"),
    ("graphs", "minimize_cover"),
    ("graphs", "minimal_vertex_covers"),
    ("graphs", "is_weighted_cover"),
    ("graphs", "is_unmixed"),
    ("graphs", "minimal_primes"),
    ("graphs", "associated_primes"),
    ("decompose", "split_decompose"),
    ("decompose", "is_m_unmixed_ideal"),
    ("decompose", "IrreducibleComponent.ideal"),
    ("decompose", "Decomposition.intersection"),
    ("monomials", "ideal_leq"),
    ("monomials", "ideal_eq"),
    ("monomials", "m_radical"),
    ("monomials", "bracket_power"),
    ("kernels", "minimalize"),
    ("kernels", "intersect_rows"),
    ("classify", "classify_auto"),
    ("classify", "recognize_suspensions"),
    ("verify", "run_suite"),
    ("verify", "check_graph"),
    ("cli", "build_parser"),
    ("cli", "run"),
    ("cli", "_load_graph"),
    ("cli", "render"),
)

# Spans that also count exponent vectors in and out.
VECTOR_COUNTED = {"kernels.minimalize"}

CALLS, TOTAL, SELF, VEC_IN, VEC_OUT = range(5)


class Tracer:
    """Aggregated spans of one traced run; see the module docstring."""

    def __init__(self):
        self.stats = {}
        self._path = ()
        self._child = [0.0]
        self._patches = []

    def request(self, root, fn, *args):
        """Run fn(*args) as a request rooted at ``root``; returns (result, seconds)."""
        saved_path, saved_child = self._path, self._child
        self._path, self._child = (root,), [0.0]
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            rec = self._record((root,))
            rec[CALLS] += 1
            rec[TOTAL] += elapsed
            rec[SELF] += elapsed - self._child[0]
            self._path, self._child = saved_path, saved_child
        return result, elapsed

    def _record(self, path):
        rec = self.stats.get(path)
        if rec is None:
            rec = self.stats[path] = [0, 0.0, 0.0, 0, 0]
        return rec

    def _wrap(self, name, fn):
        counted = name in VECTOR_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                args = (list(args[0]),) + args[1:]
            parent = self._path
            self._path = path = parent + (name,)
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._child.pop()
                self._child[-1] += elapsed
                self._path = parent
                rec = self._record(path)
                rec[CALLS] += 1
                rec[TOTAL] += elapsed
                rec[SELF] += elapsed - child
            if counted:
                rec[VEC_IN] += len(args[0])
                rec[VEC_OUT] += len(result)
            return result

        return traced

    def install(self):
        """Patch every binding of every target; undo with :meth:`uninstall`."""
        mods = {m: importlib.import_module(f"graphideals.{m}") for m in MODULES}
        mods["graphideals"] = importlib.import_module("graphideals")
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod_name], owner_name)
                original = vars(owner)[member]
                self._patch(owner, member, original, self._wrap(name, original))
                continue
            original = getattr(mods[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def export(self):
        """Stats as JSON-ready rows: [path list, calls, total, self, vin, vout]."""
        return [[list(path)] + rec for path, rec in self.stats.items()]


def merge(stats, rows, prefix=()):
    """Add exported rows into a stats dict, prefixing each path."""
    for row in rows:
        path = tuple(prefix) + tuple(row[0])
        rec = stats.get(path)
        if rec is None:
            stats[path] = list(row[1:])
        else:
            for i, value in enumerate(row[1:]):
                rec[i] += value


def inclusive(stats, name, under=None):
    """Calls, inclusive seconds and (vin, vout) of the outermost spans named
    ``name``, optionally only those whose path contains ``under``."""
    calls = total = vin = vout = 0
    for path, rec in stats.items():
        if path[-1] != name or name in path[:-1]:
            continue
        if under is not None and under not in path[:-1]:
            continue
        calls += rec[CALLS]
        total += rec[TOTAL]
        vin += rec[VEC_IN]
        vout += rec[VEC_OUT]
    return calls, total, vin, vout


def self_time(stats, name):
    return sum(rec[SELF] for path, rec in stats.items() if path[-1] == name)


def layer_self_times(stats):
    """Self seconds per layer: the module part of each span name.  Request
    roots (names without a module prefix) count as the ``bench`` layer."""
    out = {}
    for path, rec in stats.items():
        head = path[-1].partition(".")[0] if len(path) > 1 else "bench"
        out[head] = out.get(head, 0.0) + rec[SELF]
    return out
