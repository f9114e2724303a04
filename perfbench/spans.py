"""Benchmark-side layer timers.

Spans are recorded from the benchmark's own files, around its calls into
each layer's public functions; nothing inside ``src/`` is instrumented.
A span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends.

A span's *self time* is its duration minus the part of it covered by its
child spans.  The op loops clock each op with their own timer, around the
op's root span; :meth:`Recorder.layer_sum_error` compares the summed self
times with those op times, so time the spans miss (work outside the root
span, a span that is never closed, a lost span) shows as an error.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: Largest accepted |sum of self times - summed op wall time| as a share
#: of the op wall time.  The op clock also covers entering and leaving the
#: root span, a few microseconds per op: the four workloads measured
#: 0.0003-0.0017 on a 2-core x86-64 container, and 2 ms of untracked time
#: per ``search`` op measured 0.055.
LAYER_SUM_TOLERANCE = 0.01

#: Name of the root span of every op; its self time is ``bench.other_s``,
#: the harness glue around the layer calls.
ROOT = "bench.op"


class _Span:
    __slots__ = ("rec", "name", "start", "end", "parent", "op", "id")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.rec._stack()
        self.parent = stack[-1].id if stack else None
        self.op = stack[0].op if stack else self.rec._next_op()
        self.id = self.rec._next_id()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.rec._stack().pop()
        self.rec._done(self)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class NullRecorder:
    """Timers off: ``span`` costs one call and records nothing."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL


class Recorder:
    """Timers on: spans per thread, kept in memory until :meth:`dump`."""

    enabled = True

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._ops = 0
        self.spans: List[_Span] = []

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _next_op(self) -> int:
        with self._lock:
            self._ops += 1
            return self._ops

    def _done(self, span: _Span) -> None:
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (clipped to the span)."""
        children: Dict[Optional[int], List[_Span]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def layer_self(self) -> Dict[str, float]:
        """Layer name -> summed self time over every recorded span."""
        selfs = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += selfs[s.id]
        return dict(out)

    def layer_sum_error(self, op_wall: float) -> float:
        """|sum of layer self times - *op_wall*| / *op_wall*, where
        *op_wall* is the summed wall time of the traced ops as the op loop
        clocked them, outside their root spans."""
        total = sum(self.layer_self().values())
        return abs(total - op_wall) / op_wall if op_wall > 0 else 0.0

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent, op)."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(
                    {"id": s.id, "name": s.name, "start": s.start,
                     "end": s.end, "parent": s.parent, "op": s.op}) + "\n")
