"""Span tracing of the actol layers, installed from outside the package.

Every public function defined in a layer module is wrapped, and the
wrapper is bound in place of the original in *every* actol module that
holds a reference to it (``trainer`` imports ``grad_total`` by name,
``cli`` imports the theory checks by name, and so on), so calls through
those imported names are caught too. ``ClipSequence`` construction and its
public methods are wrapped on the class.

Spans live in flat arrays while the run is in progress and are written
out once at the end. Self time is computed online: a span's duration
minus the durations of its direct children.

One stack is shared by all threads. That is exact when at most one
thread runs traced code at a time, as with ``compare_objectives`` and
ACTOL_THREADS unset (a one-worker pool while the caller waits); any
interleaving breaks the stack discipline and is counted in
``stack_errors``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "reward", "trainer", "losses", "gradients", "clip", "synthetic", "theory")
# cli's public names are click commands, not functions: the harness opens
# one ``cli.<command>`` span around each invocation instead.
WRAPPED_MODULES = LAYERS[1:]
TRACED_CLASSES = {"clip": ("ClipSequence",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.stack_errors = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([idx, 0])
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter_ns()
        self.span_end[idx] = end
        if not self._stack or self._stack[-1][0] != idx:
            self.stack_errors += 1
            return
        _, child_ns = self._stack.pop()
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        parent = self.span_parent[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.incl_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        pname = self.names[self.span_name[parent]] if parent >= 0 else ""
        self.edges[(pname, name)] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(self._name_id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV (op, name, start_ns, end_ns,
        parent row)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op,name,start_ns,end_ns,parent\n")
            for i in range(len(self.span_name)):
                f.write(
                    f"{self.span_op[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]},{self.span_parent[i]}\n"
                )

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl_ns": dict(self.incl_ns),
            "self_ns": dict(self.self_ns),
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "op_calls": [
                [op, self.names[i], n]
                for (op, i), n in sorted(Counter(zip(self.span_op, self.span_name)).items())
            ],
            "spans": len(self.span_name),
            "stack_errors": self.stack_errors,
        }


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer module and rebind the
    wrappers wherever actol holds the originals. Returns the number of
    bindings replaced."""
    import actol  # noqa: F401  (loads every layer module)

    replacements = {}
    for layer in WRAPPED_MODULES:
        mod = sys.modules[f"actol.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                replacements[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            _wrap_class(tracer, layer, getattr(mod, cls_name))

    rebound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "actol" or mod_name.startswith("actol.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                rebound += 1
    return rebound


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    cls.__init__ = tracer.wrap(f"{layer}.{cls.__name__}", cls.__init__)
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(f"{layer}.{name}", attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(f"{layer}.{name}", attr))
