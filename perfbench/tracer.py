"""Span tracer for the traced benchmark pass.

``Tracer.install`` wraps the public functions of each macprod module named
in ``TARGETS``, patching every place the function object is bound: the
defining module, each module that imported it by name, and every class
attribute that aliases it (``QTRat.__radd__`` is ``QTRat.__add__``).
``uninstall`` puts every original back.

A span records name, start, end, parent span and job.  Spans of the field
arithmetic, of ``XPoly`` arithmetic and of ``eval_entry`` number in the
hundreds of thousands per job, so they are kept as aggregates per
(job, parent span, name) instead of one record each; their time still
enters the self time of the spans around them exactly.

Per name the tracer counts outermost calls (a call nested inside another
call of the same name, such as ``demazure_T`` inside ``demazure_T_inv``,
is part of the outer one), their inclusive time, and the self time of
every span: its duration minus the time of the spans directly inside it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

# (span name, module, attribute); the layer is the span name up to the dot.
TARGETS = (
    ("cli.main", "macprod.cli", "main"),
    ("matprod.compute_f", "macprod.matprod", "compute_f"),
    ("matprod.compute_P", "macprod.matprod", "compute_P"),
    ("matprod.expand_configurations", "macprod.matprod", "expand_configurations"),
    ("matprod.raw_trace_sum", "macprod.matprod", "raw_trace_sum"),
    ("matprod.omega_norm", "macprod.matprod", "omega_norm"),
    ("matprod.transition", "macprod.matprod", "transition"),
    ("matprod.recursion_report", "macprod.matprod", "recursion_report"),
    ("oscillator.trace_closed_form", "macprod.oscillator", "trace_closed_form"),
    ("hecke.compute_E", "macprod.hecke", "compute_E"),
    ("hecke.raise_E", "macprod.hecke", "raise_E"),
    ("hecke.eigen_check", "macprod.hecke", "eigen_check"),
    ("hecke.murphy_apply", "macprod.hecke", "murphy_apply"),
    ("hecke.qkz_failures", "macprod.hecke", "qkz_failures"),
    ("xpoly.demazure", "macprod.xpoly", "XPoly.demazure_T"),
    ("xpoly.demazure", "macprod.xpoly", "XPoly.demazure_T_inv"),
    ("xpoly.demazure", "macprod.xpoly", "XPoly.divided_difference"),
    ("xpoly.shift_omega", "macprod.xpoly", "XPoly.shift_omega"),
    ("xpoly.arith", "macprod.xpoly", "XPoly.__add__"),
    ("xpoly.arith", "macprod.xpoly", "XPoly.__sub__"),
    ("xpoly.arith", "macprod.xpoly", "XPoly.__mul__"),
    ("xpoly.arith", "macprod.xpoly", "XPoly.scale"),
    ("qtfield.gcd", "macprod.qtfield", "_dict_gcd"),
    ("qtfield.add", "macprod.qtfield", "QTRat.__add__"),
    ("qtfield.add", "macprod.qtfield", "QTRat.__radd__"),
    ("qtfield.mul", "macprod.qtfield", "QTRat.__mul__"),
    ("qtfield.mul", "macprod.qtfield", "QTRat.__rmul__"),
    ("qtfield.div", "macprod.qtfield", "QTRat.__truediv__"),
    ("qtfield.div", "macprod.qtfield", "QTRat.__rtruediv__"),
    ("qtfield.div", "macprod.qtfield", "QTRat.inverse"),
    ("lattice.sides", "macprod.lattice", "intertwining_sides"),
    ("lattice.compare", "macprod.lattice", "matrices_first_mismatch"),
    ("lattice.eval_entry", "macprod.lattice", "eval_entry"),
    ("oracles.eigen_solve_E", "macprod.oracles", "eigen_solve_E"),
)

AGGREGATED = frozenset({"qtfield.gcd", "qtfield.add", "qtfield.mul",
                        "qtfield.div", "xpoly.arith", "lattice.eval_entry"})

LAYERS = ("cli", "matprod", "oscillator", "hecke", "xpoly", "qtfield",
          "lattice", "oracles")

# lru caches read after the pass: (metric prefix, module, attribute)
CACHES = (
    ("matprod.f_cache", "macprod.matprod", "_compute_f"),
    ("matprod.trace_cache", "macprod.matprod", "_trace"),
    ("hecke.E_cache", "macprod.hecke", "_compute_E"),
)

_MARK = "__perfbench_wrapped__"


def _macprod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "macprod" or name.startswith("macprod."))]


def _resolve(module, attr):
    """(owner, attribute name, object), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if isinstance(owner, type) else \
        getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    def __init__(self):
        self.names = sorted({name for name, _, _ in TARGETS})
        self._nid = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.incl = [0.0] * k
        self.self_time = [0.0] * k
        self._depth = [0] * k
        self._stack = []
        self._next_sid = 0
        self.spans = []        # (sid, nid, start, end, parent sid, job)
        self.aggregated = {}   # (job, parent sid, nid) -> [count, total, self]
        self.job = -1
        self.kept = 0          # configurations returned by expand_configurations
        self.missing = []      # targets absent from this version of macprod
        self._patches = []     # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, module, attr in TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append(f"{module}:{attr}")
                continue
            owner, aname, fn = found
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = self._wrap(fn, self._nid[name])
            self._patch(owner, aname, fn, wrappers[key])
            if isinstance(owner, type):
                continue
            # the same function imported by name elsewhere in the package
            for mod in _macprod_modules():
                for other, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, other, fn, wrappers[key])

    def _patch(self, owner, attr, original, wrapper):
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, nid):
        enter, leave = self._enter, self._leave
        aggregated = self.names[nid] in AGGREGATED
        count_kept = self.names[nid] == "matprod.expand_configurations"

        def wrapper(*args, **kwargs):
            frame = enter(nid, aggregated)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, aggregated)
            if count_kept:
                self.kept += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, nid, aggregated):
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        if aggregated:
            sid = parent
        else:
            sid = self._next_sid
            self._next_sid += 1
        self._depth[nid] += 1
        frame = [nid, 0.0, 0.0, sid, parent]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame, aggregated):
        end = time.perf_counter()
        nid, start, child, sid, parent = frame
        dur = end - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += dur
        own = dur - child
        self.self_time[nid] += own
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.calls[nid] += 1
            self.incl[nid] += dur
        if aggregated:
            key = (self.job, parent, nid)
            acc = self.aggregated.get(key)
            if acc is None:
                self.aggregated[key] = [1, dur, own]
            else:
                acc[0] += 1
                acc[1] += dur
                acc[2] += own
        else:
            self.spans.append((sid, nid, start, end, parent, self.job))

    # -- results ----------------------------------------------------------

    def leftover_patches(self):
        """Attributes of macprod modules and classes still bound to a
        wrapper; empty after ``uninstall``."""
        left = []
        for mod in _macprod_modules():
            for attr, val in vars(mod).items():
                if getattr(val, _MARK, False):
                    left.append(f"{mod.__name__}.{attr}")
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    for cattr, cval in vars(val).items():
                        if getattr(cval, _MARK, False):
                            left.append(f"{mod.__name__}.{attr}.{cattr}")
        return left

    def metrics(self, wall_s):
        """Per-layer metrics of the pass, by the names in BENCHMARK.json."""
        def calls(name):
            return self.calls[self._nid[name]]

        def incl(name):
            return self.incl[self._nid[name]]

        def own(*names):
            return sum(self.self_time[self._nid[n]] for n in names)

        out = {
            "qtfield.gcd.calls": calls("qtfield.gcd"),
            "qtfield.gcd.s": incl("qtfield.gcd"),
            "qtfield.add.calls": calls("qtfield.add"),
            "qtfield.mul.calls": calls("qtfield.mul"),
            "qtfield.div.calls": calls("qtfield.div"),
            "qtfield.arith.self_s": own("qtfield.add", "qtfield.mul", "qtfield.div"),
            "matprod.compute_f.calls": calls("matprod.compute_f"),
            "matprod.compute_f.self_s": own("matprod.compute_f"),
            "matprod.expand_configurations.s": incl("matprod.expand_configurations"),
            "matprod.configs_kept": self.kept,
            "matprod.raw_trace_sum.self_s": own("matprod.raw_trace_sum"),
            "matprod.transition.calls": calls("matprod.transition"),
            "oscillator.trace_closed_form.calls": calls("oscillator.trace_closed_form"),
            "oscillator.trace_closed_form.s": incl("oscillator.trace_closed_form"),
            "hecke.compute_E.calls": calls("hecke.compute_E"),
            "hecke.raise_E.calls": calls("hecke.raise_E"),
            "hecke.raise_E.self_s": own("hecke.raise_E"),
            "hecke.eigen_check.calls": calls("hecke.eigen_check"),
            "hecke.eigen_check.s": incl("hecke.eigen_check"),
            "hecke.murphy_apply.calls": calls("hecke.murphy_apply"),
            "hecke.qkz_failures.s": incl("hecke.qkz_failures"),
            "xpoly.demazure.calls": calls("xpoly.demazure"),
            "xpoly.demazure.s": incl("xpoly.demazure"),
            "xpoly.shift_omega.calls": calls("xpoly.shift_omega"),
            "lattice.sides.s": incl("lattice.sides"),
            "lattice.compare.s": incl("lattice.compare"),
            "lattice.eval_entry.calls": calls("lattice.eval_entry"),
            "oracles.eigen_solve_E.calls": calls("oracles.eigen_solve_E"),
            "oracles.eigen_solve_E.s": incl("oracles.eigen_solve_E"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own(*(n for n in self.names
                                           if n.split(".")[0] == layer))
        out.update(cache_metrics())
        out["trace.wall_s"] = wall_s
        return out

    def dump(self, path, jobs):
        doc = {
            "names": self.names,
            "jobs": jobs,
            "missing_targets": self.missing,
            "span_fields": ["sid", "name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "aggregated_fields": ["job", "parent", "name", "count",
                                  "total_s", "self_s"],
            "aggregated": [[*key, *acc] for key, acc in self.aggregated.items()],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def cache_metrics():
    """Hit ratio, lookups and entries of the package's lru caches; zero
    when a cache no longer exists."""
    out = {}
    for prefix, module, attr in CACHES:
        found = _resolve(module, attr)
        info = found[2].cache_info() if found and hasattr(found[2], "cache_info") \
            else None
        hits, misses, entries = (info.hits, info.misses, info.currsize) if info \
            else (0, 0, 0)
        lookups = hits + misses
        out[f"{prefix}_hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{prefix}_lookups"] = lookups
        out[f"{prefix}_entries"] = entries
    return out
