"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function under every name it is
bound to in the package's modules: ``from .solver import propagate`` in
another module binds a second name, and the CLI parser picks up its
``cmd_*`` handlers from the module globals, so patching only the defining
module would leave calls unrecorded.  ``uninstall`` restores every name.

Each thread keeps its own span stack, because ``sweep`` evaluates rows on
a thread pool: a span's self time is its duration minus the spans it
caused in the same thread.  Busy time summed over threads can therefore
exceed the wall time of a pass.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Per-label calls, inclusive time, self time, failures and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.failures = Counter()
        self.counts = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label, fn, count=None):
        """``fn`` recorded under ``label``; ``count(stack_labels, *args,
        **kwargs)`` may return extra counters for the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            extra = count([f[0] for f in stack], *args, **kwargs) if count else None
            frame = [label, 0.0]
            stack.append(frame)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with self._lock:
                    self.calls[label] += 1
                    self.total[label] += dur
                    self.self_time[label] += dur - frame[1]
                    if failed:
                        self.failures[label] += 1
                    if extra:
                        self.counts.update(extra)

        return traced

    def install(self, targets, modules):
        """Patch ``targets`` = [(label, module, name, count or None)] under
        every binding found in ``modules``."""
        for label, module, name, count in targets:
            original = getattr(module, name)
            wrapped = self.wrap(label, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def snapshot(self, labels):
        """Metrics for ``labels``: .calls, .s (inclusive), .self_s and
        .failures each, plus the extra counters."""
        out = {}
        for label in labels:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.s"] = self.total[label]
            out[f"{label}.self_s"] = self.self_time[label]
            out[f"{label}.failures"] = self.failures[label]
        out.update(self.counts)
        return out
