"""Spans recorded from outside the library, by wrapping its module bindings.

``Tracer.install`` replaces every public function of the package's modules
at every module binding that refers to it (``raxelkit.decode.register``,
``raxelkit.cli.register`` and ``raxelkit.registration.register`` are three
bindings of one function) with a wrapper that records a span. A span is the
function's name (``<defining module>.<function>``), the module whose binding
was called, start and end times, and the index of the enclosing span. The
library is never edited; ``uninstall`` puts every original object back.

Observers are optional per-span-name hooks that see the call's arguments and
result after a successful call, for counts that live in return values
(decode failures, registration condition, file sizes).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NAME, VIA, START, END, PARENT = range(5)


def _traceable(obj, package: str) -> bool:
    """Public library functions, including ``lru_cache`` wrappers; no classes."""
    return (
        callable(obj)
        and not isinstance(obj, type)
        and hasattr(obj, "__name__")
        and getattr(obj, "__module__", "").startswith(package + ".")
    )


@dataclass(frozen=True)
class Binding:
    module: object
    attr: str
    original: object

    @property
    def via(self) -> str:
        return self.module.__name__.rsplit(".", 1)[-1]


def find_bindings(package_module, modules) -> list[Binding]:
    """Every public-name binding, in the package and its modules, of a
    function defined in the package."""
    package = package_module.__name__
    found = []
    for module in [package_module, *modules]:
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _traceable(obj, package):
                found.append(Binding(module, attr, obj))
    return found


class Tracer:
    """Installs span-recording wrappers; keeps spans in memory.

    Each span is a list ``[name, via, start, end, parent]`` (indices NAME,
    VIA, START, END, PARENT); ``parent`` is -1 for a root span.
    """

    def __init__(self, package_module, modules, observers=None):
        self.bindings = find_bindings(package_module, modules)
        self.observers = observers or {}
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True

    def _wrap(self, binding: Binding):
        fn = binding.original
        module_name = getattr(fn, "__module__", "")
        name = f"{module_name.rsplit('.', 1)[-1]}.{fn.__name__}"
        via = binding.via
        observer = self.observers.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, via, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if observer is not None:
                observer(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for b in self.bindings:
            setattr(b.module, b.attr, self._wrap(b))

    def uninstall(self) -> None:
        for b in self.bindings:
            setattr(b.module, b.attr, b.original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own code (layer ``perfbench``)."""
        if not self.enabled:
            yield
            return
        span = [name, "perfbench", 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run library calls without recording them (correctness checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and merged where they
    overlap, so the result never counts a covered instant twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for a, b in sorted(
            (max(spans[c][START], s[START]), min(spans[c][END], s[END]))
            for c in children.get(i, ())
        ):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s[END] - s[START]) - covered)
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans) -> dict[str, FunctionStats]:
    """Calls, inclusive time and self time per span name."""
    stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
    for s, own in zip(spans, self_times(spans)):
        st = stats[s[NAME]]
        st.calls += 1
        st.total_s += s[END] - s[START]
        st.self_s += own
    return dict(stats)
