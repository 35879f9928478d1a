"""Span tracer for the `hktheta` layers, installed from outside the package.

`from .finabgrp import brute_cokernel` copies the binding into the importing
module, so patching only the defining module would miss every call that
goes through the copy (for instance `sweeps` calling `brute_cokernel`).
`Rebinder` therefore replaces every binding of an object in every
`hktheta.*` module namespace, including module-level dicts, lists and tuples
two levels deep (a registry of functions), and puts the originals back on
`restore()`.

`Tracer` wraps each public module-level function of the traced modules.
Every call records a span (name, start, end, parent span, run id) in flat
arrays; spans are aggregated and written out only after the traced run.
A span's self time is its duration minus the durations of its direct child
spans, so it never exceeds the span.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

PACKAGE = "hktheta"
TRACED_MODULES = ("snf", "arith", "finabgrp", "lattices", "heisenberg", "invariants", "sweeps", "cli")
# Classes whose instance creation is counted through a wrapped __post_init__.
COUNTED_CLASSES = (("finabgrp", "QmodZ"), ("finabgrp", "GroupElement"))
_CONTAINER_DEPTH = 2


class Rebinder:
    """Replaces every binding of an object in the package's module namespaces."""

    def __init__(self):
        self._undo: list[tuple[object, object, object]] = []

    @staticmethod
    def modules() -> list[types.ModuleType]:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def replace(self, old, new):
        """Bind `new` wherever `old` is bound."""
        for mod in self.modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                swapped = self._swap(value, old, new, _CONTAINER_DEPTH)
                if swapped is not value:
                    self._set(ns, key, swapped)

    def _set(self, container, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def _swap(self, value, old, new, depth):
        # Returns `value` with `old` replaced by `new`: dicts and lists are
        # edited in place (recorded for restore), tuples are rebuilt.
        if value is old:
            return new
        if depth == 0:
            return value
        if type(value) is dict:
            for k, v in list(value.items()):
                s = self._swap(v, old, new, depth - 1)
                if s is not v:
                    self._set(value, k, s)
        elif type(value) is list:
            for i, v in enumerate(value):
                s = self._swap(v, old, new, depth - 1)
                if s is not v:
                    self._set(value, i, s)
        elif type(value) is tuple:
            items = tuple(self._swap(v, old, new, depth - 1) for v in value)
            if any(a is not b for a, b in zip(items, value)):
                return items
        return value

    def restore(self):
        for container, key, old in reversed(self._undo):
            container[key] = old
        self._undo.clear()


def public_functions(module: types.ModuleType) -> list[tuple[str, types.FunctionType]]:
    """Module-level functions defined in `module` whose names are public."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Records a span for every call into the traced functions while installed."""

    def __init__(self):
        self.run_id = 0
        self.names: list[str] = []
        self.created: dict[str, list[int]] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised = bytearray()
        self._stack: list[int] = []
        self._rebinder = Rebinder()
        self._class_undo: list[tuple[type, object]] = []

    def install(self):
        targets = [
            (f"{short}.{name}", fn)
            for short in TRACED_MODULES
            for name, fn in public_functions(sys.modules[f"{PACKAGE}.{short}"])
        ]
        for name, fn in targets:
            self._rebinder.replace(fn, self._wrap(name, fn))
        for short, cls_name in COUNTED_CLASSES:
            self._count_creations(short, cls_name)

    def uninstall(self):
        self._rebinder.restore()
        for cls, original in reversed(self._class_undo):
            cls.__post_init__ = original
        self._class_undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _count_creations(self, short: str, cls_name: str):
        cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
        original = cls.__post_init__
        cell = self.created.setdefault(f"{short}.{cls_name}", [0])

        def counted(obj):
            cell[0] += 1
            return original(obj)

        self._class_undo.append((cls, original))
        cls.__post_init__ = counted

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, runs = self._name, self._parent, self._run
        starts, ends, raised, stack = self._start, self._end, self._raised, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            raised.append(1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                raised[sid] = 0
                return result
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    @property
    def span_count(self) -> int:
        return len(self._start)

    def spans(self):
        """Yields (span id, name, start, end, parent id, run id, raised)."""
        for sid in range(len(self._start)):
            yield (sid, self.names[self._name[sid]], self._start[sid], self._end[sid],
                   self._parent[sid], self._run[sid], bool(self._raised[sid]))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, raised, total_s (span time) and self_s (minus child spans)."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for sid in range(n):
            p = self._parent[sid]
            if p >= 0:
                child[p] += dur[sid]
        out = {name: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = out[self.names[self._name[sid]]]
            row["calls"] += 1
            row["raised"] += self._raised[sid]
            row["total_s"] += dur[sid]
            row["self_s"] += dur[sid] - child[sid]
        return out

    def write_spans(self, path):
        """Write every span as tab-separated text, times relative to the first span."""
        origin = self._start[0] if len(self._start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\trun\traised\n")
            for sid, name, start, end, parent, run, raised in self.spans():
                out.write(f"{sid}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}"
                          f"\t{parent}\t{run}\t{int(raised)}\n")
