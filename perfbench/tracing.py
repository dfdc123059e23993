"""Span recorder that instruments loadcast from outside the package.

Spans follow the Dapper model (Sigelman et al., 2010): each records its name,
start, end, the span that caused it and the request (benchmark round) it
belongs to. Spans stay in memory and are written out when the run ends.

Instrumentation replaces public functions and methods with recording
wrappers at run time; nothing under ``src/`` changes. A function imported by
name into another loadcast module is replaced there too, so calls between
modules are recorded as well.

Pool workers forked while tracing is on inherit the wrappers. Each worker
keeps its own spans and writes them to a file when it exits; the parent
merges those files with ``collect_children``. Timestamps come from
``time.perf_counter``, a system-wide monotonic clock on Linux, so spans of
different processes share one timeline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path

_now = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "pid", "attrs",
                 "overhead")

    def __init__(self, span_id, name, start, parent, request, pid, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.pid = pid
        self.attrs = attrs
        # time the recording wrapper spent outside [start, end]
        self.overhead = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        span = cls(doc["id"], doc["name"], doc["start"], doc["parent"],
                   doc["request"], doc["pid"], doc["attrs"])
        span.end = doc["end"]
        span.overhead = doc["overhead"]
        return span


class Tracer:
    """In-memory span store for one process; `request` tags new spans."""

    def __init__(self, child_dir: Path):
        self.spans: list[Span] = []
        self.request = None
        self.child_dir = Path(child_dir)
        self._stack: list[Span] = []
        self._count = 0
        self._pid = os.getpid()
        # runs in multiprocessing children after their finalizer registry
        # has been reset, so the Finalize below survives
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # the child keeps the open stack (its spans hang under the parent's
        # open span) but none of the parent's finished spans
        self.spans = []
        self._pid = os.getpid()
        mp_util.Finalize(None, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        path = self.child_dir / f"spans-{self._pid}.json"
        path.write_text(json.dumps([s.to_dict() for s in self.spans]))

    def collect_children(self) -> None:
        """Merge span files written by exited worker processes."""
        for path in sorted(self.child_dir.glob("spans-*.json")):
            self.spans.extend(Span.from_dict(d) for d in json.loads(path.read_text()))
            path.unlink()

    def _open(self, name: str, attrs: dict) -> Span:
        self._count += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(f"{self._pid}:{self._count}", name, 0.0, parent,
                    self.request, self._pid, attrs)
        self._stack.append(span)
        span.start = _now()
        return span

    def _close(self, span: Span) -> None:
        span.end = _now()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, pre=None, post=None):
        """Record a span around every call of `fn`.

        `pre(*args, **kwargs)` and `post(result, *args, **kwargs)` return
        span attributes; they run outside the span's own interval. The time
        the wrapper spends outside that interval, hooks included, is kept
        as the span's `overhead`.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = _now()
            attrs = pre(*args, **kwargs) if pre else {}
            span = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if post:
                span.attrs.update(post(result, *args, **kwargs))
            span.overhead = _now() - entered - span.duration
            return result

        return traced


def _package_modules(package: str):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def install(tracer: Tracer, targets, package: str = "loadcast") -> None:
    """Wrap each target `(module, qualname, span_name, pre, post)`.

    A qualname `Cls.method` wraps the method on the class. A target missing
    from the program raises LookupError: a change that renames or removes a
    traced function has to update the target list with it.
    """
    for module_name, qualname, span_name, pre, post in targets:
        module = importlib.import_module(f"{package}.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            raise LookupError(f"trace target {package}.{module_name}.{qualname} not found")
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(span_name, raw.__func__, pre, post)))
            else:
                setattr(owner, attr, tracer.wrap(span_name, raw, pre, post))
            continue
        wrapped = tracer.wrap(span_name, raw, pre, post)
        for mod in _package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)


def bind(fn):
    """Return a function mapping call arguments to a name -> value dict."""
    sig = inspect.signature(fn)

    def arguments(*args, **kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span may run in parallel in several processes, so the
    covered part is the union of their intervals, clipped to the parent.
    """
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out
