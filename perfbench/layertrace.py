"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions and public methods of every
voablocks module without touching ``src/``: for a function it replaces
the defining module's attribute and every ``from .x import name`` binding
of it in the other voablocks modules; for a method it replaces the class
attribute.  A layer is one module, and a function's metric name is
``<layer>.<attribute>``; methods of the same name on different classes of
a layer (``Module.mode_apply``, ``DualModule.mode_apply``) share a name.

Most wrappers record a span (function, start, end, parent span, op id)
in compact arrays kept in memory and written out by ``write_spans``.
Self time is a span's duration minus the time its direct child spans
cover, accumulated as the spans close.  Helpers called more than about
10k times per op only count their calls (COUNT_ONLY); their time stays
in the calling span's self time.  Private helpers (leading underscore)
are not wrapped, so their time also counts for the public caller.

Wrappers return the callee's own objects and re-raise its exceptions; an
exception leaving a span whose parent belongs to another layer (or to
the benchmark) counts as ``raised`` for the span's layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
import weakref
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("series", "linalg", "graded", "virasoro", "models", "coordchange",
          "schwarzian", "blocks", "sewing", "odepole", "jsonio", "cli")

# Called more than ~10k times in one op of some workload: counter only.
COUNT_ONLY = frozenset({"virasoro.gbinom", "models.gen_apply", "models.partitions", "series.coeff",
                        "graded.weight_of", "graded.vec_add_into"})

_LRU = type(functools.lru_cache(maxsize=None)(lambda: None))


def _freeze(x):
    if isinstance(x, dict):
        return tuple(x.items())
    return x


class Tracer:
    """Spans, call counters and the observers of the per-function ratios."""

    def __init__(self):
        self.names: list[str] = []
        self.fids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised = [0] * len(LAYERS)
        self.sp_fid = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # a frame is [fid, layer, span index, time covered by child spans]
        self.root = [-1, -1, -1, 0.0]
        self.stack = [self.root]
        self.op_id = 0
        self.mode_seen: set = set()
        self.mode_repeats = 0
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self.src_seen: set = set()
        self.src_repeats = 0
        self.src_passed = 0
        self.cells = 0
        self._base = None

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int):
        """Start op ``op_id``: spans opened until the next call belong to it."""
        self.op_id = op_id

    def end_setup(self):
        """Exclude everything counted so far (the set-up, op 0) from
        ``summary``; the spans and the seen-sets of the ratios keep it."""
        self._base = self._counters()

    def _counters(self) -> dict:
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "raised": list(self.raised), "mode_apply_repeats": self.mode_repeats,
                "strong_residue_repeats": self.src_repeats,
                "strong_residue_passed": self.src_passed, "solve_linear_cells": self.cells}

    # -- wrappers --------------------------------------------------------

    def _fid(self, name: str) -> int:
        fid = self.fids.get(name)
        if fid is None:
            fid = self.fids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return fid

    def _counter(self, fid: int, layer: int, fn):
        calls, stack, raised = self.calls, self.stack, self.raised

        def counted(*args, **kwargs):
            calls[fid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if stack[-1][1] != layer:
                    raised[layer] += 1
                raise

        return functools.update_wrapper(counted, fn)

    def _span(self, fid: int, layer: int, fn, observe=None):
        calls, stack, raised, self_s = self.calls, self.stack, self.raised, self.self_s
        sp_fid, sp_parent, sp_op = self.sp_fid, self.sp_parent, self.sp_op
        sp_start, sp_end = self.sp_start, self.sp_end
        tracer = self

        def spanned(*args, **kwargs):
            calls[fid] += 1
            parent = stack[-1]
            idx = len(sp_fid)
            sp_fid.append(fid)
            sp_parent.append(parent[2])
            sp_op.append(tracer.op_id)
            sp_end.append(0.0)
            frame = [fid, layer, idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            sp_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            except BaseException:
                if parent[1] != layer:
                    raised[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                sp_end[idx] = t1
                self_s[fid] += d - frame[3]
                parent[3] += d

        return functools.update_wrapper(spanned, fn)

    def _wrap(self, name: str, layer: int, fn):
        fid = self._fid(name)
        if name in COUNT_ONLY:
            return self._counter(fid, layer, fn)
        return self._span(fid, layer, fn, self._observers.get(name))

    # -- observers of the per-function ratios ----------------------------

    def _obs_mode_apply(self, args, kwargs, result):
        module, v, h, w = args[:4]
        serial = self._serial.get(module)
        if serial is None:
            serial = self._serial[module] = self._next_serial = self._next_serial + 1
        key = (serial, _freeze(v), h, _freeze(w))
        if key in self.mode_seen:
            self.mode_repeats += 1
        else:
            self.mode_seen.add(key)

    def _obs_strong_residue(self, args, kwargs, result):
        tails = args[0] if args else kwargs["tails"]
        tails = getattr(tails, "tails", tails)
        points = args[1] if len(args) > 1 else kwargs.get("points")
        divisor = args[2] if len(args) > 2 else kwargs.get("divisor")
        key = (tuple((repr(p), t.floor, t.order) for p, t in tails.items()),
               repr(points), repr(sorted((repr(p), d) for p, d in (divisor or {}).items())))
        if key in self.src_seen:
            self.src_repeats += 1
        else:
            self.src_seen.add(key)
        self.src_passed += bool(result.passed)

    def _obs_solve(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        self.cells += len(rows) * (len(rows[0]) if rows else 0)

    @property
    def _observers(self):
        return {"models.mode_apply": self._obs_mode_apply,
                "blocks.strong_residue_check": self._obs_strong_residue,
                "linalg.solve_linear": self._obs_solve}

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function and method of the voablocks layers."""
        mods = [importlib.import_module(f"voablocks.{name}") for name in LAYERS]
        namespaces = mods + [importlib.import_module("voablocks")]
        replaced: dict[int, tuple] = {}
        for layer, mod in enumerate(mods):
            short = LAYERS[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, (types.FunctionType, _LRU)):
                    replaced[id(obj)] = (obj, self._wrap(f"{short}.{attr}", layer, obj))
                elif isinstance(obj, type):
                    self._wrap_class(obj, short, layer)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

    def _wrap_class(self, cls, short: str, layer: int):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self._wrap(f"{short}.{attr}", layer, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(f"{short}.{attr}", layer, member.__func__)))

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Counts and self times since ``end_setup``; merged across
        processes by ``merge``."""
        now = self._counters()
        if self._base is not None:
            now = {k: ([a - b for a, b in zip(v, self._base[k] + [0] * len(v))]
                       if isinstance(v, list) else v - self._base[k]) for k, v in now.items()}
        calls, self_s, raised = now.pop("calls"), now.pop("self_s"), now.pop("raised")
        return {"fn": {n: [calls[i], self_s[i]] for i, n in enumerate(self.names)},
                "raised": dict(zip(LAYERS, raised)), **now, "spans": len(self.sp_fid)}

    def write_spans(self, path: Path):
        """Write the spans as a JSON header line followed by the raw arrays."""
        fields = ("sp_fid", "sp_parent", "sp_op", "sp_start", "sp_end")
        with open(path, "wb") as fh:
            head = {"names": self.names, "count": len(self.sp_fid),
                    "fields": [[f[3:], getattr(self, f).typecode] for f in fields]}
            fh.write(json.dumps(head).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def merge(summaries: list) -> dict:
    out = {"fn": {}, "raised": dict.fromkeys(LAYERS, 0), "mode_apply_repeats": 0,
           "strong_residue_repeats": 0, "strong_residue_passed": 0,
           "solve_linear_cells": 0, "spans": 0}
    for s in summaries:
        for name, (calls, self_s) in s["fn"].items():
            acc = out["fn"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for layer, n in s["raised"].items():
            out["raised"][layer] += n
        for key in ("mode_apply_repeats", "strong_residue_repeats",
                    "strong_residue_passed", "solve_linear_cells", "spans"):
            out[key] += s[key]
    return out
