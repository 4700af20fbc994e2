"""An in-memory span tracer that wraps functions from outside the program.

Each target names a module attribute (``fhirtwin.ner:segment``) or a class
attribute (``fhirtwin.terminology:TerminologyIndex.lookup``). While the
tracer is installed every call through that attribute records one span:
name, start, end, parent span and the request id the caller set. Because
the wrapping happens on the attribute the program itself looks up at call
time, nested calls are counted where they happen. Spans stay in memory
until the caller writes them out.

A target whose module, class or attribute no longer exists is listed in
``absent`` instead of failing the run, and every wrapped attribute is put
back when the ``installed()`` block ends, whether or not it raised.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional


@dataclass(frozen=True)
class Target:
    """One attribute to wrap, and how to size a call's work from it.

    ``measure(args, result)`` runs after the call's end time is taken; what
    it returns is stored on the span as ``size``.
    """

    name: str
    path: str
    measure: Optional[Callable[[tuple, Any], Any]] = None

    def resolve(self) -> Optional[tuple[object, str]]:
        """(owner, attribute) when the target exists and is a plain function."""
        module_name, _, dotted = self.path.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
        except ImportError:
            return None
        *owner_path, attr = dotted.split(".")
        for part in owner_path:
            owner = vars(owner).get(part)
            if owner is None:
                return None
        if not callable(vars(owner).get(attr)):
            return None
        return owner, attr


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    request_id: Optional[str]
    size: Any


class Tracer:
    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.spans: list[Optional[Span]] = []
        self.absent: list[str] = []
        self.request_id: Optional[str] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _wrap(self, name: str, fn: Callable, measure) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index] = Span(
                    name, start, clock(), parent, self.request_id, None
                )
                self._stack.pop()
                raise
            end = clock()
            self._stack.pop()
            size = measure(args, result) if measure is not None else None
            self.spans[index] = Span(name, start, end, parent, self.request_id, size)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller's own code."""
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.request_id, None)

    @contextmanager
    def installed(self):
        """Wrap every resolvable target for the duration of the block."""
        try:
            for target in self.targets:
                found = target.resolve()
                if found is None:
                    if target.name not in self.absent:
                        self.absent.append(target.name)
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target.name, original, target.measure))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, s in enumerate(self.spans):
                if s is None:
                    continue
                row = {
                    "id": index,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "request_id": s.request_id,
                }
                out.write(json.dumps(row) + "\n")


def self_times(spans: list[Optional[Span]]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Calls on one thread nest, so a span's direct children never overlap
    and their durations add up to the time they cover.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s is not None and s.parent >= 0:
            covered[s.parent] += s.end_ns - s.start_ns
    return [
        (s.end_ns - s.start_ns - covered[i]) if s is not None else 0
        for i, s in enumerate(spans)
    ]
