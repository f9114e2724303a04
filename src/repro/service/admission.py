"""The admission front every NDJSON server shares.

:class:`AdmissionFront` is what the transports in
:mod:`repro.service.server` feed: it validates raw frames (size cap,
strict UTF-8), decodes request lines and admits them into one bounded
queue.  A full queue answers *immediately* with a typed ``backpressure``
error; once drain starts (a signal, stdin EOF, a ``shutdown`` request)
new requests get ``shutting-down`` while everything admitted is still
answered.  Subclasses supply :meth:`AdmissionFront.run` and may screen
requests at admission by extending :meth:`AdmissionFront._admit` — the
service answers idempotent replays there.

:func:`request_span` and :func:`ship_spans` are the per-request trace
plumbing both fronts share.
"""

from __future__ import annotations

import signal
import threading
from collections import deque
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional

from repro.obs import distributed as _dist
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.service import protocol
from repro.service.protocol import (
    BACKPRESSURE,
    BAD_REQUEST,
    SHUTTING_DOWN,
    ProtocolError,
    error_response,
)


class Pending(NamedTuple):
    """One admitted request waiting in the queue."""

    req_id: Any
    op: str
    params: Dict[str, Any]
    reply: Callable[[dict], None]
    idem: Optional[str]
    trace: Optional[dict]


class AdmissionFront:
    """Frame validation, decoding, bounded admission and drain."""

    #: Prefix of the ``.rejected.<code>`` and ``.queue_depth`` metrics.
    metric_prefix = "service"
    #: What the ``shutting-down`` message says is draining.
    drain_subject = "server"

    def __init__(self, queue_max: int = 64):
        if queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {queue_max}")
        self.queue_max = queue_max
        self._cond = threading.Condition()
        self._items: deque = deque()
        self._draining = False
        self.drain_reason: Optional[str] = None
        self.counters: Dict[str, Any] = {
            "accepted": 0, "backpressure": 0, "rejected_shutdown": 0,
        }

    # -- admission (transport threads) -------------------------------------

    def ingest_bytes(self, frame: bytes,
                     reply: Callable[[dict], None]) -> None:
        """Validate one raw frame (size cap, strict UTF-8) before
        decoding; malformed frames get a typed ``bad-request`` and the
        connection stays alive."""
        cap = protocol.max_frame_bytes()
        if len(frame) > cap:
            reply(error_response(
                None, BAD_REQUEST,
                f"frame of {len(frame)} bytes exceeds the {cap}-byte "
                f"limit (REPRO_MAX_FRAME_BYTES)"))
            return
        try:
            line = frame.decode("utf-8")
        except UnicodeDecodeError as exc:
            reply(error_response(None, BAD_REQUEST,
                                 f"frame is not valid UTF-8: {exc}"))
            return
        if line.strip():
            self.ingest(line, reply)

    def ingest(self, line: str, reply: Callable[[dict], None]) -> None:
        """Decode one request line and admit it; rejections (malformed,
        backpressure, draining) are answered immediately on the
        transport's thread."""
        try:
            req_id, op, params, idem, trace = protocol.decode_request(line)
        except ProtocolError as exc:
            reply(error_response(getattr(exc, "request_id", None),
                                 exc.code, exc.message))
            return
        self.submit(req_id, op, params, reply, idem=idem, trace=trace)

    def submit(self, req_id, op, params,
               reply: Callable[[dict], None],
               idem: Optional[str] = None,
               trace: Optional[dict] = None) -> bool:
        """Admission control; returns True when the request is queued
        (or otherwise left to be answered later).  A request answered at
        admission — a rejection, or whatever :meth:`_admit` answers
        itself — is replied to here, outside the lock."""
        pending = Pending(req_id, op, params, reply, idem, trace)
        with self._cond:
            answer = self._admit(pending)
            depth = len(self._items)
        if answer is not None:
            reply(answer)
            return False
        if _obs.enabled():
            get_metrics().gauge(
                f"{self.metric_prefix}.queue_depth").set(depth)
        return True

    def _admit(self, pending: Pending) -> Optional[dict]:
        """Under the queue lock: queue *pending* and return None, or
        return its typed ``shutting-down``/``backpressure`` rejection."""
        if self._draining:
            self.counters["rejected_shutdown"] += 1
            return self._reject(
                pending, SHUTTING_DOWN,
                f"{self.drain_subject} is draining ({self.drain_reason})")
        if len(self._items) >= self.queue_max:
            self.counters["backpressure"] += 1
            return self._reject(
                pending, BACKPRESSURE,
                f"request queue full ({self.queue_max}); retry later")
        self.counters["accepted"] += 1
        self._items.append(pending)
        self._cond.notify()
        return None

    def _reject(self, pending: Pending, code: str, message: str) -> dict:
        if _obs.enabled():
            get_metrics().counter(
                f"{self.metric_prefix}.rejected.{code}").inc()
        return error_response(pending.req_id, code, message)

    def request_drain(self, reason: str) -> None:
        """Stop admitting; everything already queued is still answered.
        Safe to call from a signal handler: attribute writes only, and
        every wait on the queue polls, so no notify is needed."""
        if not self._draining:
            self._draining = True
            self.drain_reason = reason

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain.  Only possible from the main
        thread; elsewhere (in-process test harnesses) this is a no-op."""
        if threading.current_thread() is not threading.main_thread():
            return
        signal.signal(signal.SIGTERM,
                      lambda s, f: self.request_drain("SIGTERM"))
        signal.signal(signal.SIGINT,
                      lambda s, f: self.request_drain("SIGINT"))

    def run(self) -> None:
        """Process admitted requests until drained: everything admitted
        is answered before this returns."""
        raise NotImplementedError


# -- per-request tracing ------------------------------------------------------

def request_span(name: str, op: str, trace: Optional[dict], *,
                 root: bool = False):
    """The span one request runs under: with tracing on it adopts the
    client's trace context when the request carried one, else roots a
    fresh trace if *root*; otherwise a plain (possibly no-op) span."""
    if _obs.enabled():
        if trace:
            return _dist.adopt(trace, name, op=op)
        if root:
            return _dist.start_trace(name, op=op)
    return _obs.span(name, op=op)


def ship_spans(response: dict, root_sp: Any, trace: dict,
               extra: Iterable[dict] = (), extra_dropped: int = 0) -> bool:
    """Piggyback the finished request subtree under *root_sp* — plus
    spans collected for *trace* and the downstream *extra* — on
    *response* for the caller to stitch.  Returns False, shipping
    nothing, when there is no live tracer span to ship from."""
    tracer = _obs.get_tracer()
    if tracer is None or not isinstance(root_sp, _obs.Span):
        return False
    spans = _dist.get_collector().drain(trace["id"])
    spans.extend(extra)
    spans, dropped = _dist.ship(tracer, root_sp, trace, extra=spans)
    if spans:
        response["spans"] = spans
    if dropped or extra_dropped:
        response["spans_dropped"] = dropped + extra_dropped
    return True
