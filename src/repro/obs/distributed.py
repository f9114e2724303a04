"""Distributed tracing: one stitched span tree across processes.

A request that crosses process boundaries — CLI client → fleet front
end → router → worker service, or a ``search(jobs=N)`` caller → its
forked pool children — carries a *trace context* on the wire:
``{"id": <trace id>, "parent": <qualified span id>}``.  Each hop :func:`adopt`-s the context (opening a local span
tagged with the trace id), does its work under the ordinary
:mod:`repro.obs.trace` instrumentation, and — when replying — calls
:func:`ship` to extract its completed subtree, rewrite the local span
ids into globally unique *qualified* ids (``"<tracer tag>-<local
id>"``), re-parent the subtree root under the caller's span, and
piggyback the records on the response.  The originating process folds
every hop's shipped spans together and ends up with a single tree under
one ``trace_id`` — no collector daemon, no clock synchronization (the
tree is structural; ``start`` offsets are only comparable within one
process).

Shipping is bounded (:data:`SHIP_LIMIT` spans per response, innermost
kept, overflow counted in ``spans_dropped``) so a pathological request
cannot turn its response into a span dump.

Everything here follows the package's one-switch convention: while
:func:`repro.obs.trace.enabled` is False, no context is attached to
outgoing requests, incoming contexts are ignored, and no cross-process
state exists at all — the wire format is byte-identical to an
uninstrumented build.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as _trace
from repro.obs.metrics import merge_histogram_dicts

__all__ = [
    "SHIP_LIMIT", "SpanCollector",
    "adopt", "current_context", "export_stitched", "get_collector",
    "merge_metric_snapshots", "new_trace_id", "qualify", "ship",
    "start_trace", "stitched_records",
]

#: Most spans one response will carry (its own subtree plus everything
#: forwarded from downstream hops); the rest are counted, not sent.
SHIP_LIMIT = 256


def new_trace_id() -> str:
    """A fresh 16-hex trace id (W3C-style, shortened)."""
    return os.urandom(8).hex()


def qualify(tag: str, span_id: int) -> str:
    """The globally unique wire form of a local span id."""
    return f"{tag}-{span_id}"


# ---------------------------------------------------------------------------
# context propagation
# ---------------------------------------------------------------------------

def start_trace(name: str, **tags: Any):
    """Open a span that roots a *new* trace (fresh trace id).  The
    no-op span when tracing is disabled."""
    if not _trace.enabled():
        return _trace.NULL_SPAN
    return _trace.span(name, trace=new_trace_id(), **tags)


def adopt(ctx: Dict[str, Any], name: str, **tags: Any):
    """Open a span joined to a remote caller's trace: it carries the
    caller's trace id, and :func:`ship` will re-parent it under
    ``ctx["parent"]``.  The no-op span when tracing is disabled."""
    if not _trace.enabled():
        return _trace.NULL_SPAN
    return _trace.span(name, trace=ctx.get("id") or new_trace_id(),
                       **tags)


def current_context() -> Optional[Dict[str, str]]:
    """The trace context to attach to an outgoing request, derived from
    the calling thread's innermost open span: ``parent`` is that span's
    qualified id, ``id`` the nearest enclosing span's trace id (a fresh
    one is minted — and tagged onto the innermost span — when no
    enclosing span carries one).  None when tracing is disabled or no
    span is open (nothing to stitch to)."""
    tracer = _trace.get_tracer()
    if tracer is None:
        return None
    stack = tracer.open_spans()
    if not stack:
        return None
    top = stack[-1]
    trace_id = None
    for sp in reversed(stack):
        trace_id = sp.tags.get("trace")
        if trace_id is not None:
            break
    if trace_id is None:
        trace_id = new_trace_id()
        top.tags["trace"] = trace_id
    return {"id": trace_id, "parent": qualify(tracer.tag, top.span_id)}


# ---------------------------------------------------------------------------
# shipping completed subtrees across the wire
# ---------------------------------------------------------------------------

def _subtree(tracer: _trace.Tracer, root: _trace.Span) -> List[_trace.Span]:
    """Completed spans in the tracer's buffer whose parent chain reaches
    *root* (root included), in completion order."""
    spans = tracer.spans()
    members = {root.span_id}
    out: List[_trace.Span] = []
    # The buffer is in completion order (children before parents), so
    # one reverse pass sees each span's parent decided before the span.
    for sp in reversed(spans):
        if sp.span_id in members or sp.parent_id in members:
            members.add(sp.span_id)
            out.append(sp)
    if root not in out:
        out.append(root)
    out.reverse()
    return out


def ship(tracer: _trace.Tracer, root: _trace.Span, ctx: Dict[str, Any],
         extra: Optional[List[Dict[str, Any]]] = None,
         limit: int = SHIP_LIMIT) -> Tuple[List[Dict[str, Any]], int]:
    """The wire records for a completed request: *root*'s subtree with
    qualified ids, the subtree root re-parented under ``ctx["parent"]``,
    plus *extra* already-qualified records forwarded from downstream
    hops.  Returns ``(records, dropped)`` with the total bounded by
    *limit* (truncation drops oldest records first, so this hop's own
    subtree — and its root in particular — survives longest)."""
    tag = tracer.tag
    trace_id = ctx.get("id")
    local: List[Dict[str, Any]] = []
    for sp in _subtree(tracer, root):
        rec = sp.to_dict()
        rec["id"] = qualify(tag, sp.span_id)
        if sp is root:
            rec["parent"] = ctx.get("parent")
        elif sp.parent_id is not None:
            rec["parent"] = qualify(tag, sp.parent_id)
        rec["trace"] = trace_id
        rec["proc"] = tag
        local.append(rec)
    records = list(extra or ()) + local  # local subtree last: kept first
    dropped = 0
    if len(records) > limit:
        dropped = len(records) - limit
        records = records[-limit:]
    return records, dropped


# ---------------------------------------------------------------------------
# collecting shipped spans at the originating side
# ---------------------------------------------------------------------------

class SpanCollector:
    """Remote span records grouped by trace id, bounded in total.

    The originating process (the CLI client, or a fleet front end acting
    as trace root) adds every ``spans`` list it receives; when a bound
    is hit the newest records win and the loss is counted in
    :attr:`dropped` — a telemetry sink must never grow without bound.
    """

    def __init__(self, limit: int = 16384):
        self.limit = limit
        self.dropped = 0
        self._by_trace: Dict[str, List[Dict[str, Any]]] = {}
        self._total = 0

    def add(self, records: Optional[List[Dict[str, Any]]],
            dropped: int = 0) -> None:
        self.dropped += int(dropped)
        for rec in records or ():
            trace_id = rec.get("trace") or "?"
            if self._total >= self.limit:
                self.dropped += 1
                continue
            self._by_trace.setdefault(trace_id, []).append(rec)
            self._total += 1

    def drain(self, trace_id: str) -> List[Dict[str, Any]]:
        """Remove and return the records collected for *trace_id*."""
        records = self._by_trace.pop(trace_id, [])
        self._total -= len(records)
        return records

    def all_records(self) -> List[Dict[str, Any]]:
        return [rec for records in self._by_trace.values()
                for rec in records]

    def trace_ids(self) -> List[str]:
        return sorted(self._by_trace)

    def __len__(self) -> int:
        return self._total

    def clear(self) -> None:
        self._by_trace.clear()
        self._total = 0
        self.dropped = 0


_COLLECTOR = SpanCollector()


def get_collector() -> SpanCollector:
    """The process-global collector for spans shipped back to us."""
    return _COLLECTOR


# ---------------------------------------------------------------------------
# stitching: local spans + collected remote spans, one document
# ---------------------------------------------------------------------------

def stitched_records(tracer: Optional[_trace.Tracer] = None,
                     collector: Optional[SpanCollector] = None,
                     ) -> List[Dict[str, Any]]:
    """Every local completed span (qualified ids, trace ids inherited
    down the local parent chain) merged with every collected remote
    record — the export form of the stitched cross-process trace."""
    tracer = tracer if tracer is not None else _trace.get_tracer()
    collector = collector if collector is not None else _COLLECTOR
    records: List[Dict[str, Any]] = []
    if tracer is not None:
        tag = tracer.tag
        trace_of: Dict[int, Optional[str]] = {}
        spans = sorted(tracer.spans(), key=lambda sp: sp.start)
        for sp in spans:  # parents open before children
            trace_of[sp.span_id] = (sp.tags.get("trace")
                                    or trace_of.get(sp.parent_id))
        for sp in spans:
            rec = sp.to_dict()
            rec["id"] = qualify(tag, sp.span_id)
            if sp.parent_id is not None:
                rec["parent"] = qualify(tag, sp.parent_id)
            rec["trace"] = trace_of.get(sp.span_id)
            rec["proc"] = tag
            records.append(rec)
    records.extend(collector.all_records())
    return records


def export_stitched(path: str,
                    tracer: Optional[_trace.Tracer] = None,
                    collector: Optional[SpanCollector] = None) -> int:
    """Write the stitched trace as JSON lines; returns the record
    count."""
    import json

    records = stitched_records(tracer, collector)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(records)


# ---------------------------------------------------------------------------
# fleet-wide metric aggregation
# ---------------------------------------------------------------------------

def merge_metric_snapshots(snapshots: List[Dict[str, Any]],
                           labels: Optional[List[str]] = None,
                           ) -> Dict[str, Any]:
    """Merge N processes' :meth:`~repro.obs.metrics.Metrics.snapshot`
    documents: counters sum, gauges keep each process's last write
    tagged by its label, histograms merge bucket-wise (with p50/p95/p99
    re-estimated over the merged buckets)."""
    if labels is None:
        labels = [f"w{i}" for i in range(len(snapshots))]
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Dict[str, Any]] = {}
    histograms: Dict[str, List[Dict[str, Any]]] = {}
    for label, snap in zip(labels, snapshots):
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (snap.get("gauges") or {}).items():
            gauges.setdefault(name, {})[label] = value
        for name, hist in (snap.get("histograms") or {}).items():
            histograms.setdefault(name, []).append(hist)
    return {
        "sources": list(labels),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {name: merge_histogram_dicts(dicts)
                       for name, dicts in sorted(histograms.items())},
    }
