"""In-memory span tracing installed from outside the package.

A `Tracer` replaces module attributes (for example
`tsgbomp.experiments.tsgbomp` or `numpy.linalg.lstsq`) with wrappers that
record one span per call, and puts the originals back when the `installed`
block ends. Call sites inside `tsgbomp` look these names up at call time, so
the wrappers see every call without any change to the package.

A span is (name, start, end, parent, op, busy, attrs). `busy` is the time a
span was actually running: for ordinary calls it is end - start, for a
wrapped generator it is the time spent inside its `next` calls only. A
span's self time is its busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, so comparable across processes


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    busy: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


@dataclass(frozen=True)
class Target:
    """Wrap `module.attr` as span `name`. `attrs(args, kwargs, result)`
    returns counts to attach to the span; `generator` marks a function whose
    result is an iterator that does the work lazily."""

    module: str
    attr: str
    name: str
    attrs: Callable | None = None
    generator: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def _open(self, name: str) -> int:
        self.spans.append(Span(name=name, start=clock(), parent=self.current(), op=self.op))
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Record a span around a block; with `op`, the block is one timed
        operation and every span opened inside it carries that id."""
        outer_op = self.op
        if op is not None:
            self.op = op
        sid = self._open(name)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid].end = clock()
            self.op = outer_op

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        if target.generator:
            def traced_gen(*args, **kwargs):
                span = tracer.spans[tracer._open(target.name)]
                span.busy = 0.0
                span.attrs["items"] = 0
                it = iter(fn(*args, **kwargs))
                try:
                    while True:
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            span.busy += clock() - t0
                        span.attrs["items"] += 1
                        yield item
                finally:  # also when the consumer stops early
                    span.end = clock()

            return traced_gen

        def traced(*args, **kwargs):
            sid = tracer._open(target.name)
            tracer._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[sid].end = clock()
            if target.attrs is not None:
                tracer.spans[sid].attrs.update(target.attrs(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: tuple[Target, ...]):
        """Patch every target for the duration of the block, then restore
        each original attribute, also when the block raises."""
        saved = []
        try:
            for target in targets:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
                saved.append((module, target.attr, original))
                setattr(module, target.attr, self.wrap(original, target))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def current(self) -> int | None:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "busy": s.busy, "attrs": s.attrs,
                }) + "\n")

    def load(self, path: str, parent: int, op: int) -> None:
        """Append spans written by `dump` in another process, re-rooting its
        top-level spans under `parent` and tagging all of them with `op`."""
        base = len(self.spans)
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                self.spans.append(Span(
                    name=rec["name"], start=rec["start"], end=rec["end"],
                    parent=parent if rec["parent"] is None else base + rec["parent"],
                    op=op, busy=rec["busy"], attrs=rec["attrs"],
                ))
