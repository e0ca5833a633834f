"""In-memory span tracer that times engine layers from outside.

The benchmark replaces a module or class attribute with a wrapper that
records a span around each call, so no engine code changes.  Spans are kept
in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is not None and a <= cur_b:
            cur_b = max(cur_b, b)
            continue
        if cur_b is not None:
            total += cur_b - cur_a
        cur_a, cur_b = a, b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(children, start, end)


class Tracer:
    """Spans are ``(request, name, start, end, parent)`` tuples, where
    ``parent`` indexes the enclosing span or is -1.  A call into a layer
    that is already open (``pq.write_table`` calling
    ``ParquetWriter.write_table``) records no second span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.request: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        if any(self.spans[i][1] == name for i in self._open):
            yield
            return
        idx = len(self.spans)
        self.spans.append((self.request, name, 0.0, 0.0,
                           self._open[-1] if self._open else -1))
        self._open.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            req, _, _, _, parent = self.spans[idx]
            self.spans[idx] = (req, name, t0, t1, parent)

    def wrap(self, owner: object, attr: str, name: str | None,
             counter: Callable[[tuple, object], dict] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``
        (none when ``name`` is None) and adds ``counter(args, result)`` to
        the counts.  Counting runs after the span closes."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name is None:
                out = orig(*args, **kwargs)
            else:
                with self.span(name):
                    out = orig(*args, **kwargs)
            if counter is not None:
                for k, v in counter(args, out).items():
                    self.count(k, v)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """Seconds per span name, summed over all spans."""
        out: dict[str, float] = {}
        for _req, name, t0, t1, _parent in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def self_totals(self) -> dict[str, float]:
        """Self seconds per span name: each span minus its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _req, _name, t0, t1, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out: dict[str, float] = {}
        for i, (_req, name, t0, t1, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + self_time(t0, t1, children.get(i, []))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for req, name, t0, t1, parent in self.spans:
                f.write(json.dumps({"request": req, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")
