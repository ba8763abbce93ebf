"""In-memory span tracing and reversible function wrapping.

The benchmark measures the program from outside: it replaces public
functions and methods with thin wrappers, runs the workload, and puts the
originals back.  Nothing in ``src/`` knows it is being traced.

* :class:`Tracer` keeps spans (name, start, end, parent span, thread) in a
  list and counters in a dict.  Spans nest per thread.
* :class:`Patcher` swaps attributes and restores every one of them.
* :func:`summarise` turns spans into per-name busy time and per-layer self
  time; :func:`chrome_trace` turns them into Chrome trace-event JSON, which
  Perfetto and ``chrome://tracing`` open as they are.

Stdlib only, so it can be imported before NumPy pins its BLAS threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Span recorder.  ``enabled=False`` turns every wrapper into a pass-through."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[tuple] = []  # (span_id, parent_id, name, t0_ns, t1_ns, thread_id)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter_ns()

    def end(self, token: tuple) -> None:
        t1 = time.perf_counter_ns()
        span_id, parent, name, t0 = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, t0, t1, threading.get_ident()))

    def add(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += value

    def reset(self) -> None:
        """Drop recorded spans, counters and samples (keeps ``enabled``)."""
        self.spans = []
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)

    def wrap(self, fn, name, on_exit=None):
        """Span-recording wrapper around ``fn``.

        ``name`` is a string or ``callable(args) -> str`` (for names keyed
        by the receiver, such as the update family).  ``on_exit(tracer,
        args, kwargs, result)`` runs after a successful call, inside the
        span, to add counters.  Return values and exceptions pass through.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(self, args, kwargs, result)
                return result
            finally:
                self.end(token)

        return wrapper


class Patcher:
    """Replaces attributes on classes and modules and restores them all."""

    def __init__(self):
        self._saved: list[tuple] = []  # (owner, attr, original, owned)

    def patch(self, owner, attr: str, make) -> bool:
        """Set ``owner.attr = make(original)``; False when ``attr`` is absent.

        Descriptors found in the class ``__dict__`` (``staticmethod``,
        ``classmethod``) are unwrapped, wrapped and re-wrapped.
        """
        owned = attr in vars(owner)
        if not owned and not hasattr(owner, attr):
            return False
        raw = vars(owner)[attr] if owned else getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw, owned))
        setattr(owner, attr, new)
        return True

    def patch_method(self, cls, attr: str, make) -> int:
        """Patch ``cls.attr`` and every subclass override of it.

        Returns how many classes were patched (0 when no class defines it).
        """
        patched = 0
        seen = set()
        todo = [cls]
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in vars(klass):
                patched += self.patch(klass, attr, make)
        return patched

    def patch_function(self, fn, make, package: str) -> int:
        """Replace ``fn`` wherever a module of ``package`` binds it by name.

        ``from x import f`` copies the reference, so patching only the
        defining module would miss those callers.  One wrapper serves every
        binding.  Returns how many bindings were patched.
        """
        wrapper = make(fn)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn, True))
                    setattr(module, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_of(name: str) -> str:
    """Layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus the part of it
    that its child spans cover (children clipped to the parent, overlaps
    between children counted once)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    out = {}
    for span_id, _, _, t0, t1, _ in spans:
        covered = 0
        cursor = t0
        for _, _, _, c0, c1, _ in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            lo, hi = max(c0, cursor), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (t1 - t0) - covered
    return out


def summarise(spans) -> tuple[dict, dict]:
    """Per-name ``{calls, busy_s, self_s}`` and per-layer ``{busy_s, self_s}``.

    ``calls`` counts every span.  ``busy_s`` sums durations of spans with
    no same-name ancestor, so a method that calls its own super()
    implementation is not counted twice.  Layer ``busy_s`` likewise sums
    spans with no ancestor in the same layer; layer ``self_s`` sums the
    self time of all the layer's spans.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)

    def has_ancestor(span, pred) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if pred(parent):
                return True
            parent = by_id.get(parent[1])
        return False

    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    for span in spans:
        span_id, _, name, t0, t1, _ = span
        layer = layer_of(name)
        entry = names[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[span_id] * 1e-9
        layers[layer]["self_s"] += selfs[span_id] * 1e-9
        if not has_ancestor(span, lambda p: p[2] == name):
            entry["busy_s"] += (t1 - t0) * 1e-9
        if not has_ancestor(span, lambda p: layer_of(p[2]) == layer):
            layers[layer]["busy_s"] += (t1 - t0) * 1e-9
    return dict(names), dict(layers)


def chrome_trace(spans, run_id: str, pid: int) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(span[3] for span in spans)
    events = [
        {
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": (t0 - base) / 1e3,
            "dur": (t1 - t0) / 1e3,
            "pid": pid,
            "tid": tid,
            "args": {"span_id": span_id, "parent": parent, "run_id": run_id},
        }
        for span_id, parent, name, t0, t1, tid in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"run_id": run_id}}
