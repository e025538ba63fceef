"""Spans around the public functions of sebalab's five layers, from outside.

A Tracer replaces every public function of ``sebalab.arithmetic``,
``spectrum``, ``multifractal``, ``epstein`` and ``cli`` by a wrapper, in
every sebalab namespace that holds it (``cli`` imports functions by name, so
patching only the defining module would miss its calls).  Each call records
one span: name, layer, start, end, parent span, an item count taken from the
result, and a few counters computed from the arguments and the result.  The
program itself is not changed; uninstall() puts the original functions back.

Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
import time

import numpy as np

LAYERS = ("arithmetic", "spectrum", "multifractal", "epstein", "cli")


def _table_terms(table, x=None):
    """Entries of the representable set that a scan up to x reads."""
    rep = table.representable
    if x is None:
        return int(len(rep))
    # an integer key: a float key would make numpy cast the whole array
    return int(np.searchsorted(rep, math.floor(float(x)), side="right"))


def _count_build(b, out):
    nbytes = out.r2.nbytes + out.omega1.nbytes + out.representable.nbytes
    return {"items": int(out.x_max) + 1, "bytes": int(nbytes)}


def _count_solve_range(b, out):
    mode = b["config"].mode
    chunks = math.ceil(len(out) / b["chunk"]) if mode == "weak" else 0
    return {"items": len(out), "mode": mode, "chunks": chunks}


def _count_zeta(b, out):
    return {"items": 1, "terms": _table_terms(b["table"], b["x_window"])}


def _count_profile(b, out):
    # the zeta entries are counted by their own spans; this adds the
    # Shannon scan over the same window
    return {"items": len(out.zeta2q),
            "terms": _table_terms(b["table"], b["x_window"])}


def _count_full_scan(b, out):
    return {"items": 1, "terms": _table_terms(b["table"])}


def _count_mean_tail(b, out):
    return {"items": 1, "terms": int(3.0 * float(b["T"])) + 1}


def _count_fractal(b, out):
    q_entries = len(out.q_grid) + (0 if 1.0 in out.q_grid else 1)
    scans = q_entries + (1 if 1.0 in out.q_grid else 0)
    return {"items": out.n_records * q_entries,
            "terms": out.n_records * scans * _table_terms(b["table"])}


def _count_epstein(b, out):
    # the memo key of the program's caches: aspect ratio, s and the
    # remaining arguments (precision or tolerance)
    rest = tuple((k, v) for k, v in b.items() if k not in ("form", "s"))
    return {"items": 1,
            "key": repr((float(b["form"].a), complex(b["s"]), rest))}


def _count_text(b, out):
    return {"items": len(out)}


def _count_one(b, out):
    return {"items": 1}


COUNTERS = {
    "arithmetic.build_table": _count_build,
    "spectrum.solve_range": _count_solve_range,
    "multifractal.zeta_lambda": _count_zeta,
    "multifractal.moment_profile": _count_profile,
    "multifractal.tail_tau": _count_full_scan,
    "multifractal.annulus_decay_ok": _count_full_scan,
    "multifractal.density_filter": lambda b, out: {"items": len(out)},
    "multifractal.mean_tail": _count_mean_tail,
    "multifractal.fractal_estimates": _count_fractal,
    "epstein.epstein_direct": _count_epstein,
    "epstein.epstein_continued": _count_epstein,
    "epstein.zeta_Q_derivative": _count_epstein,
    "cli.execute": _count_text,
    "cli.render": _count_text,
}


class Tracer:
    """Records spans around sebalab's public functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []   # (namespace, attribute, original)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, layer="bench", **fields):
        """Context manager recording one span (used for rounds and stages)."""
        return _Span(self, name, layer, fields)

    def _open(self, name, layer):
        stack = self._stack()
        rec = {"id": next(self._ids), "parent": stack[-1]["id"] if stack else 0,
               "name": name, "layer": layer, "t0": time.perf_counter()}
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec["t1"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name, _count_one)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                tracer._close(rec)
                raise
            tracer._close(rec)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.update(counter(bound.arguments, out))
            return out

        traced.__wrapped_original__ = fn
        return traced

    def install(self, package):
        """Wrap every public function of the five layer modules."""
        import importlib
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(layer, obj))
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, originals[id(obj)][1])
        return self

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def adopt_jsonl(self, path, **fields):
        """Take in spans another process wrote, under the current open span."""
        stack = self._stack()
        parent = stack[-1]["id"] if stack else 0
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        new_ids = {rec["id"]: next(self._ids) for rec in recs}
        for rec in recs:
            rec["parent"] = new_ids.get(rec["parent"], parent) if rec["parent"] else parent
            rec["id"] = new_ids[rec["id"]]
            rec.update(fields)
            self.spans.append(rec)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, extra=()):
        with open(path, "w") as fh:
            for rec in itertools.chain(self.spans, extra):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _Span:
    def __init__(self, tracer, name, layer, fields):
        self.tracer, self.name, self.layer, self.fields = tracer, name, layer, fields

    def __enter__(self):
        self.rec = self.tracer._open(self.name, self.layer)
        self.rec.update(self.fields)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


def self_times(spans):
    """Seconds per layer: each span's duration minus its direct children's."""
    child_time = {}
    for rec in spans:
        if rec["parent"]:
            child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                         + rec["t1"] - rec["t0"])
    out = {}
    for rec in spans:
        own = rec["t1"] - rec["t0"] - child_time.get(rec["id"], 0.0)
        out[rec["layer"]] = out.get(rec["layer"], 0.0) + own
    return out


def descendants(spans, root_ids):
    """Spans below any of root_ids (spans are closed children-first)."""
    by_parent = {}
    for rec in spans:
        by_parent.setdefault(rec["parent"], []).append(rec)
    out, todo = [], list(root_ids)
    while todo:
        kids = by_parent.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(k["id"] for k in kids)
    return out
