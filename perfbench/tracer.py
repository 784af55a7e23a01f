"""In-memory span tracer that wraps quditbv's module attributes.

Inside ``with Tracer(targets):`` every listed function or method is replaced,
in every ``quditbv`` module that holds it, by a wrapper that records a span:
name, parent span, request id, start and end time, self time (duration minus
the time covered by child spans), optional computed bytes, and two indices
into a memory timeline.

Memory is traced only inside spans of targets marked ``memory``: such a span
starts ``tracemalloc`` on entry and stops it on exit, so every block it frees
was allocated inside it and the rest of the run pays no tracing cost.  While
tracing, the timeline is sampled at every span boundary with the peak reset
after each sample, so the peak over any interval between two span boundaries
is exact.  On exit every attribute is restored, so code that runs outside the
``with`` block is never wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

PACKAGE = "quditbv"
MIB = 1024.0 * 1024.0


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    t0: float
    mark0: int
    t1: float = 0.0
    mark1: int = -1
    child_s: float = 0.0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``path`` is relative to the package, e.g.
    ``"oracle.LinearOracle.apply_quantum"``; ``nbytes`` computes the bytes a
    call moves from its arguments."""

    path: str
    span: str
    nbytes: Callable[..., int] | None = None
    memory: bool = False


def _resolve(path: str) -> tuple[object, str] | None:
    """Owner object and attribute name for a package-relative path."""
    parts = path.split(".")
    try:
        owner: object = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ModuleNotFoundError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None


def package_modules() -> list[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Record spans around the targets while the ``with`` block runs."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.marks: list[tuple[int, int]] = []  # (traced bytes now, peak since previous mark)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._request = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        for target in self.targets:
            resolved = _resolve(target.path)
            if resolved is None:  # the program no longer has this layer entry
                continue
            owner, attr = resolved
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name, nbytes = self, target.span, target.nbytes
        memory = target.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, nbytes(*args, **kwargs) if nbytes else 0)
                if started:
                    tracemalloc.stop()

        return wrapper

    # -- spans --------------------------------------------------------------

    def _mark(self) -> int:
        """Sample the memory timeline; -1 when memory is not being traced."""
        if not tracemalloc.is_tracing():
            return -1
        now, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self.marks.append((now, peak))
        return len(self.marks) - 1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            request=parent.request if parent else self._request,
            name=name,
            mark0=self._mark(),
            t0=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, nbytes: int) -> None:
        span.t1 = time.perf_counter()
        span.mark1 = self._mark()
        span.nbytes = nbytes
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def request(self, kind: str) -> Iterator[Span]:
        """Root span ``request.<kind>``; every span inside shares its id."""
        self._request += 1
        span = self._open(f"request.{kind}")
        try:
            yield span
        finally:
            self._close(span, 0)

    def peak_mib(self, mark0: int, mark1: int) -> float:
        """Peak traced memory between two marks, above the level at ``mark0``."""
        if mark0 < 0 or mark1 <= mark0:
            return 0.0
        peak = max(p for _, p in self.marks[mark0 + 1 : mark1 + 1])
        return max(peak - self.marks[mark0][0], 0) / MIB

    def write(self, path) -> None:
        """Write the spans, one JSON array per line, then the memory marks."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "parent", "request", "name", "t0", "t1",
                                             "self_s", "nbytes", "mark0", "mark1"]}) + "\n")
            for s in self.spans:
                out.write(json.dumps([s.id, s.parent, s.request, s.name, s.t0, s.t1,
                                      s.self_s, s.nbytes, s.mark0, s.mark1]) + "\n")
            out.write(json.dumps({"marks": self.marks}) + "\n")
