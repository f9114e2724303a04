"""The fleet's TCP face: one port, N workers behind it.

``repro serve --fleet N --tcp`` binds a single listener and proxies
every NDJSON request line to the
:class:`~repro.fleet.router.FleetRouter`.  :class:`FleetFrontEnd` is an
:class:`~repro.service.admission.AdmissionFront`, the admission front
:class:`~repro.service.server.TransformationService` uses too: the same
frame validation, bounded queue with typed ``backpressure`` and
``shutting-down`` rejections, drain and signal handling, served by the
same :func:`~repro.service.server.serve_tcp` and
:func:`~repro.service.server.pump_frames` transports.

What the fleet keeps for itself: ``shutdown`` is answered at admission
(so the drain can refuse everything after it), and admitted requests
are dispatched from a small thread pool instead of the service's single
processing loop — requests routed to *different* workers proceed
concurrently, which is exactly the fleet's throughput story.
Per-worker ordering is still serial (the router holds one lock per
worker).  Everything admitted is answered before :meth:`run` returns
and the workers are stopped.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.fleet.ring import FleetError
from repro.fleet.router import FleetRouter
from repro.obs import distributed as _dist
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.service.admission import (
    AdmissionFront,
    request_span,
    ship_spans,
)
from repro.service.protocol import (
    INTERNAL,
    UNAVAILABLE,
    error_response,
    ok_response,
)


class FleetFrontEnd(AdmissionFront):
    """Admit NDJSON requests and dispatch them through a fleet router."""

    metric_prefix = "fleet"
    drain_subject = "fleet"

    def __init__(self, router: FleetRouter, *, queue_max: int = 64,
                 dispatchers: Optional[int] = None):
        super().__init__(queue_max)
        self.router = router
        self.dispatchers = dispatchers or max(2, 2 * len(router.workers))
        self._inflight = 0
        self.counters["answered"] = 0

    def submit(self, req_id, op, params, reply, idem=None,
               trace=None) -> bool:
        if op != "shutdown":
            return super().submit(req_id, op, params, reply, idem=idem,
                                  trace=trace)
        # Answered at admission so the drain can refuse everything
        # after it; the router's own shutdown path stops workers.
        reply(ok_response(req_id, {"stopping": True,
                                   "reason": "shutdown request",
                                   "workers": len(self.router.workers)}))
        self.request_drain("shutdown request")
        return False

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._items and not self._draining:
                    self._cond.wait(0.1)
                if not self._items:
                    return  # draining and empty
                pending = self._items.popleft()
                self._inflight += 1
            req_id, op = pending.req_id, pending.op
            start = time.monotonic()
            enabled = _obs.enabled()
            root_sp = None
            try:
                # Without a client trace context the front end roots a
                # fresh trace: it is where a fleet request's stitched
                # span tree begins.
                with request_span("fleet.admit", op, pending.trace,
                                  root=True) as root_sp:
                    response = self.router.request_raw(
                        op, pending.params, req_id=req_id,
                        idem=pending.idem)
            except FleetError as exc:
                response = error_response(req_id, UNAVAILABLE, str(exc))
            except Exception as exc:  # noqa: BLE001 — must answer
                response = error_response(
                    req_id, INTERNAL, f"{type(exc).__name__}: {exc}")
            if enabled:
                self._observe(op, response, pending.trace, root_sp,
                              (time.monotonic() - start) * 1000.0)
            pending.reply(response)
            with self._cond:
                self.counters["answered"] += 1
                self._inflight -= 1
                self._cond.notify_all()

    def _observe(self, op: str, response: dict,
                 trace_in: Optional[dict], root_sp: Any,
                 elapsed_ms: float) -> None:
        """Per-request telemetry: the op's SLO latency histogram, plus
        span plumbing — downstream spans piggybacked on the response are
        either shipped onward (the client sent a trace context) or
        folded into this process's collector (the front end is the trace
        root and will export the stitched tree itself)."""
        metrics = get_metrics()
        if op not in ("stats", "telemetry", "shutdown"):
            # Control-plane ops are kept out of the request counter so
            # it stays comparable to the workers' summed counts.
            metrics.counter("fleet.frontend.requests").inc()
        metrics.histogram(f"fleet.latency_ms.{op}").observe(elapsed_ms)
        child_spans = response.pop("spans", None)
        child_dropped = response.pop("spans_dropped", 0)
        if trace_in and ship_spans(response, root_sp, trace_in,
                                   child_spans or (), child_dropped):
            return
        if child_spans or child_dropped:
            _dist.get_collector().add(child_spans, child_dropped)

    def run(self) -> None:
        """Serve until drained: every admitted request is answered,
        then the workers are stopped."""
        threads = [threading.Thread(target=self._dispatch_loop,
                                    name=f"fleet-dispatch-{i}",
                                    daemon=True)
                   for i in range(self.dispatchers)]
        for t in threads:
            t.start()
        with self._cond:
            while not (self._draining and not self._items
                       and self._inflight == 0):
                self._cond.wait(0.1)
        for t in threads:
            t.join(timeout=10.0)
        self.router.stop()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._cond:
            doc = dict(self.counters, queue_depth=len(self._items),
                       inflight=self._inflight, draining=self._draining)
        doc["router"] = self.router.snapshot()
        return doc
