"""The long-lived transformation server.

One :class:`TransformationService` owns the session's warm state
(:class:`~repro.service.state.WarmState`) and answers every request in
its own process: legality is cheap by design and the service's only
scorer is the static ``parallelism`` score, so nothing is forked.

Threading model
---------------

Transports (the stdio reader, TCP connection readers) run on daemon
threads and only *admit* work: decode the line, run admission control,
enqueue.  All request **processing** happens on the thread that calls
:meth:`TransformationService.run` — the main thread under the CLI — so
per-request budgets can reuse the ``SIGALRM``-based
:func:`~repro.parallel.worker.call_with_timeout`.

Admission control
-----------------

Frame validation, the bounded queue with its typed ``backpressure`` and
``shutting-down`` rejections, and drain on SIGTERM, SIGINT, stdin EOF
or a ``shutdown`` request come from
:class:`~repro.service.admission.AdmissionFront`, which the fleet's
front end shares.  The service adds the idempotency window: a replayed
``idem`` key is answered from it (or attached to the in-flight
original) at admission, never re-executed.

Batching
--------

The processing loop drains up to ``batch_max`` queued requests per
cycle and answers them in arrival order.  Legality and search
requests run through the warm legality cache, so a later identical
request is a pure cache hit.

The transports (:func:`serve_stdio`, :func:`serve_tcp`,
:func:`pump_frames`) serve any :class:`~repro.service.admission.
AdmissionFront`.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.core.spec import parse_steps
from repro.deps.analysis import LEVELS
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.parallel.worker import call_with_timeout
from repro.resilience import chaos as _chaos
from repro.resilience import guards as _guards
from repro.service import protocol
from repro.service.admission import (
    AdmissionFront,
    Pending,
    request_span,
    ship_spans,
)
from repro.service.protocol import (
    BAD_INPUT,
    BAD_REQUEST,
    ILLEGAL,
    INTERNAL,
    PROTOCOL_VERSION,
    TIMEOUT,
    UNAVAILABLE,
    ProtocolError,
    error_response,
    ok_response,
)
from repro.options import ENGINE_NAMES, MODEL_NAMES
from repro.service.state import WarmState
from repro.util.errors import ReproError

#: Request options that fall back to a service default: the check a
#: request's value and the default both pass, and the error message
#: (``{!r}`` is the rejected value).
_OPTIONS = {
    "engine": (lambda v: v in ENGINE_NAMES,
               f"params.engine must be one of {', '.join(ENGINE_NAMES)}, "
               "got {!r}"),
    "candidate_timeout": (
        lambda v: v is None or (isinstance(v, (int, float)) and v > 0),
        "params.candidate_timeout must be a positive number"),
    "prune": (lambda v: isinstance(v, bool),
              "params.prune and params.speculate must be booleans"),
    "speculate": (lambda v: isinstance(v, bool),
                  "params.prune and params.speculate must be booleans"),
    "model": (lambda v: v is None or v in MODEL_NAMES,
              f"params.model must be one of {', '.join(MODEL_NAMES)}, "
              "got {!r}"),
}


class TransformationService(AdmissionFront):
    """Warm-state request processor behind ``repro serve``."""

    #: Responses remembered per idempotency key; a replayed key is
    #: answered from this window instead of re-executed.
    IDEM_WINDOW = 512

    def __init__(self, *, queue_max: int = 64,
                 batch_max: int = 8,
                 request_timeout: Optional[float] = None,
                 cache_max_entries: Optional[int] = 4096,
                 compiled_max_entries: int = 128,
                 heartbeat_file: Optional[str] = None,
                 hang_grace: float = 5.0,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 25,
                 default_engine: str = "compiled",
                 default_prune: bool = False,
                 default_speculate: bool = False,
                 default_model: Optional[str] = None):
        super().__init__(queue_max)
        self.defaults = {"engine": default_engine, "candidate_timeout": None,
                         "prune": default_prune,
                         "speculate": default_speculate,
                         "model": default_model}
        for name in _OPTIONS:
            try:
                self._option({}, name)
            except ProtocolError as exc:
                raise ValueError(f"service default: {exc.message}") from None
        self.batch_max = max(1, int(batch_max))
        self.request_timeout = request_timeout
        self.heartbeat_file = heartbeat_file
        self.hang_grace = max(float(hang_grace), 0.2)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.state = WarmState(legality_max_entries=cache_max_entries,
                               compiled_max_entries=compiled_max_entries)
        if checkpoint_path and os.path.exists(checkpoint_path):
            self.state.restore(checkpoint_path)
        self._started = time.monotonic()
        self._last_tick = time.monotonic()
        self._since_checkpoint = 0
        # Idempotency: completed responses keyed by idem (bounded LRU)
        # plus replies attached to a still-in-flight key, so a replay
        # racing its original neither re-executes nor goes unanswered.
        self._idem_done: Dict[str, dict] = {}
        self._idem_waiters: Dict[str, List[Tuple[object, Callable]]] = {}
        self.counters.update({
            "completed": 0, "errors": 0, "timeouts": 0,
            "batches": 0, "max_batch": 0,
            "idem_replays": 0, "dropped_replies": 0,
            "by_op": {},
        })
        self._dispatch: Dict[str, Callable] = {
            "ping": self._op_ping,
            "parse": self._op_parse,
            "analyze": self._op_analyze,
            "legality": self._op_legality,
            "apply": self._op_apply,
            "run": self._op_run,
            "search": self._op_search,
            "stats": self._op_stats,
            "telemetry": self._op_telemetry,
            "shutdown": self._op_shutdown,
        }

    # -- admission: idempotent replays are answered, not queued ------------

    def _admit(self, pending: Pending) -> Optional[dict]:
        """A replayed idempotency key is answered from the dedup window
        (or attached to the in-flight original) without re-executing;
        anything else goes through the shared admission control."""
        idem = pending.idem
        if idem is not None and idem in self._idem_done:
            self.counters["idem_replays"] += 1
            if _obs.enabled():
                get_metrics().counter("service.idem_replays").inc()
                _obs.event("service.idem_replay", op=pending.op)
            return dict(self._idem_done[idem], id=pending.req_id)
        if idem is not None and idem in self._idem_waiters:
            self._idem_waiters[idem].append((pending.req_id, pending.reply))
            self.counters["idem_replays"] += 1
            return None
        rejection = super()._admit(pending)
        if rejection is None and idem is not None:
            self._idem_waiters[idem] = []
        return rejection

    # -- the processing loop (owning thread) -------------------------------

    def run(self) -> None:
        """Process requests until drained: admitted work is always
        answered, even after drain starts."""
        self._started = time.monotonic()
        self._last_tick = time.monotonic()
        if self.heartbeat_file:
            threading.Thread(target=self._heartbeat_loop,
                             name="service-heartbeat",
                             daemon=True).start()
        while True:
            self._last_tick = time.monotonic()
            batch: List[Pending] = []
            with self._cond:
                if not self._items:
                    if self._draining:
                        break
                    # Short poll so a signal-handler drain (attribute
                    # write, no notify) is noticed promptly.
                    self._cond.wait(0.1)
                while self._items and len(batch) < self.batch_max:
                    batch.append(self._items.popleft())
                depth = len(self._items)
            if not batch:
                continue
            if _obs.enabled():
                metrics = get_metrics()
                metrics.gauge("service.queue_depth").set(depth)
                metrics.histogram("service.batch_size").observe(len(batch))
            self.counters["batches"] = int(self.counters["batches"]) + 1
            if len(batch) > int(self.counters["max_batch"]):
                self.counters["max_batch"] = len(batch)
            with _obs.span("service.batch", size=len(batch)):
                for pending in batch:
                    response = self._handle(pending)
                    # The response is recorded in the idem window BEFORE
                    # the send-or-drop decision: a drop models a lost
                    # reply, and the client's replay must find the
                    # completed work waiting for it.
                    waiters = self._finish_idem(pending, response)
                    if _chaos.decide("service.dispatch", "drop"):
                        self.counters["dropped_replies"] = (
                            int(self.counters["dropped_replies"]) + 1)
                        if _obs.enabled():
                            get_metrics().counter(
                                "service.dropped_replies").inc()
                    else:
                        pending.reply(response)
                    for waiter_id, waiter_reply in waiters:
                        waiter_reply(dict(response, id=waiter_id))
            self._maybe_checkpoint(len(batch))
        if self.checkpoint_path:
            self.state.checkpoint(self.checkpoint_path)

    def _finish_idem(self, pending: Pending, response: dict):
        """Record *response* under the request's idem key and detach any
        replays that arrived while it was in flight.

        Responses carrying a retryable error code are answered but NOT
        recorded: those codes mean the work was refused or lost, not
        completed, and remembering them would replay the transient
        error to every retry of the same key — turning a one-shot
        fault into a permanent failure for that client.
        """
        if pending.idem is None:
            return []
        error = response.get("error") if not response.get("ok") else None
        retryable = (error or {}).get("code") in protocol.RETRYABLE_CODES
        with self._cond:
            if retryable:
                return self._idem_waiters.pop(pending.idem, [])
            self._idem_done[pending.idem] = response
            while len(self._idem_done) > self.IDEM_WINDOW:
                del self._idem_done[next(iter(self._idem_done))]
            return self._idem_waiters.pop(pending.idem, [])

    def _maybe_checkpoint(self, completed: int) -> None:
        if not self.checkpoint_path:
            return
        self._since_checkpoint += completed
        if self._since_checkpoint >= self.checkpoint_every:
            self._since_checkpoint = 0
            self.state.checkpoint(self.checkpoint_path)

    def _heartbeat_loop(self) -> None:
        """Touch the heartbeat file while the processing loop is live.

        The touch is gated on the run loop's last tick: if a request
        hangs the owning thread, the mtime goes stale and the
        supervisor's hang detector fires.  A daemon thread that touched
        unconditionally would mask exactly the failures it exists to
        expose.
        """
        interval = max(self.hang_grace / 4.0, 0.05)
        while True:
            if time.monotonic() - self._last_tick <= self.hang_grace:
                try:
                    with open(self.heartbeat_file, "a"):
                        pass
                    os.utime(self.heartbeat_file, None)
                except OSError:
                    pass
            time.sleep(interval)

    def _handle(self, pending: Pending):
        op, params = pending.op, pending.params
        start = time.monotonic()
        code: Optional[str] = None
        # A request carrying a trace context joins the caller's trace:
        # the request span adopts the remote trace id, and the completed
        # subtree is shipped back on the response for stitching.
        root_sp = None
        try:
            with request_span("service.request", op,
                              pending.trace) as root_sp:
                # crash/hang kinds act here, on the owning thread: a
                # crash kills the process (the supervisor's problem), a
                # hang stalls the loop until the heartbeat goes stale.
                _chaos.inject("service.dispatch")
                _guards.check_rss()
                handler = self._dispatch[op]
                value, timed_out = call_with_timeout(
                    lambda: handler(params), self.request_timeout)
                if timed_out:
                    raise ProtocolError(
                        TIMEOUT, f"request overran the server budget "
                        f"({self.request_timeout}s)")
            response = ok_response(pending.req_id, value)
        except _chaos.ChaosError as exc:
            code = UNAVAILABLE
            response = error_response(pending.req_id, UNAVAILABLE, str(exc))
        except ProtocolError as exc:
            code = exc.code
            response = error_response(pending.req_id, exc.code, exc.message)
        except ReproError as exc:
            code = BAD_INPUT
            response = error_response(pending.req_id, BAD_INPUT, str(exc))
        except (RecursionError, MemoryError) as exc:
            # The guards should have converted these upstream; if one
            # still escapes, the client gets a typed error, never a
            # raw blowup.
            code = BAD_INPUT
            response = error_response(
                pending.req_id, BAD_INPUT,
                f"request exhausted a resource limit "
                f"({type(exc).__name__}: {exc})")
        except Exception as exc:  # noqa: BLE001 — the server must answer
            code = INTERNAL
            response = error_response(
                pending.req_id, INTERNAL,
                f"{type(exc).__name__}: {exc}")
        if pending.trace is not None and _obs.enabled():
            ship_spans(response, root_sp, pending.trace)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        if code is None:
            self.counters["completed"] = int(self.counters["completed"]) + 1
        else:
            self.counters["errors"] = int(self.counters["errors"]) + 1
            if code == TIMEOUT:
                self.counters["timeouts"] = (
                    int(self.counters["timeouts"]) + 1)
        by_op: Dict[str, int] = self.counters["by_op"]  # type: ignore
        by_op[op] = by_op.get(op, 0) + 1
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("service.requests").inc()
            metrics.counter(f"service.requests.{op}").inc()
            if code is not None:
                metrics.counter(f"service.errors.{code}").inc()
            metrics.histogram(f"service.latency_ms.{op}").observe(elapsed_ms)
        return response

    # -- shared param plumbing ---------------------------------------------

    def _nest_level(self, params: dict):
        text = params.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError(BAD_INPUT,
                                "params.text must be a non-empty string")
        level = params.get("level", "fm")
        if level not in LEVELS:
            raise ProtocolError(
                BAD_INPUT,
                f"params.level must be one of {', '.join(LEVELS)}")
        nest = self.state.nest(text, bool(params.get("sink", False)))
        return nest, level

    def _steps(self, params: dict, depth: int):
        spec = params.get("steps")
        if not isinstance(spec, str) or not spec.strip():
            raise ProtocolError(BAD_INPUT,
                                "params.steps must be a non-empty string")
        return parse_steps(spec, depth)

    # -- operations --------------------------------------------------------

    def _op_ping(self, params: dict) -> dict:
        return {"pong": True, "protocol": PROTOCOL_VERSION,
                "version": __version__}

    def _op_parse(self, params: dict) -> dict:
        nest, _level = self._nest_level(params)
        return {"depth": nest.depth,
                "indices": list(nest.indices),
                "headers": [lp.header() for lp in nest.loops],
                "pretty": nest.pretty()}

    def _op_analyze(self, params: dict) -> dict:
        nest, level = self._nest_level(params)
        deps = self.state.deps(nest, level)
        return {"depth": nest.depth, "level": level,
                "count": len(deps),
                "deps": [str(v) for v in deps]}

    def _op_legality(self, params: dict) -> dict:
        nest, level = self._nest_level(params)
        transformation = self._steps(params, nest.depth)
        deps = self.state.deps(nest, level)
        report = self.state.legality_cache.legality(
            transformation, nest, deps)
        doc = {"legal": report.legal,
               "sequence": transformation.signature(),
               "spec": transformation.to_spec(),
               "deps": len(deps)}
        if not report.legal:
            doc["reason"] = report.reason
        return doc

    def _op_apply(self, params: dict) -> dict:
        nest, level = self._nest_level(params)
        transformation = self._steps(params, nest.depth)
        emit = params.get("emit", "loop")
        if emit not in ("loop", "c", "python", "pretty"):
            raise ProtocolError(
                BAD_INPUT,
                "params.emit must be one of loop, c, python, pretty")
        if params.get("force"):
            out = transformation.apply(nest, check=False)
            legal = None
        else:
            deps = self.state.deps(nest, level)
            report = self.state.legality_cache.legality(
                transformation, nest, deps)
            if not report.legal:
                raise ProtocolError(ILLEGAL, report.reason or "illegal")
            out = transformation.apply(nest, deps)
            legal = True
        if emit == "c":
            from repro.ir.emit import emit_c
            code = emit_c(out)
        elif emit == "python":
            from repro.runtime.compiled import emit_python
            code = emit_python(out)
        elif emit == "pretty":
            from repro.ir.pretty_temps import pretty_with_temps
            code = pretty_with_temps(out)
        else:
            code = out.pretty()
        return {"sequence": transformation.signature(),
                "legal": legal, "emit": emit, "code": code}

    def _option(self, params: dict, name: str):
        """Request option *name*, else the service default; both pass
        the same check."""
        value = params.get(name, self.defaults[name])
        check, message = _OPTIONS[name]
        if not check(value):
            raise ProtocolError(BAD_INPUT, message.format(value))
        return value

    def _op_run(self, params: dict) -> dict:
        nest, level = self._nest_level(params)
        if params.get("steps"):
            transformation = self._steps(params, nest.depth)
            if params.get("force"):
                nest = transformation.apply(nest, check=False)
            else:
                deps = self.state.deps(nest, level)
                report = self.state.legality_cache.legality(
                    transformation, nest, deps)
                if not report.legal:
                    raise ProtocolError(ILLEGAL, report.reason or "illegal")
                nest = transformation.apply(nest, deps)
        symbols = params.get("symbols", {})
        if (not isinstance(symbols, dict)
                or not all(isinstance(k, str) and isinstance(v, int)
                           and not isinstance(v, bool)
                           for k, v in symbols.items())):
            raise ProtocolError(
                BAD_INPUT, "params.symbols must map names to integers")
        engine_name = self._option(params, "engine")
        doc: dict = {"depth": nest.depth, "engine": engine_name}
        if engine_name == "interpreter":
            from repro.runtime.interpreter import Interpreter
            result = Interpreter(nest, symbols=symbols).run({})
            doc["warm"] = False
        elif engine_name == "vectorized":
            from repro.runtime.vectorized import numpy_available
            if not numpy_available():
                raise ProtocolError(
                    BAD_REQUEST,
                    "engine 'vectorized' needs NumPy, which this server "
                    "does not have (use 'compiled' or 'interpreter')")
            cache = self.state.vectorized()
            before = cache.hits
            engine = cache.get(nest, symbols=symbols)
            result = engine.run({})
            doc["warm"] = cache.hits > before
            doc["vectorized"] = engine.describe()
        else:
            before = self.state.compiled.hits
            engine = self.state.compiled.get(nest, symbols=symbols)
            result = engine.run({})
            doc["warm"] = self.state.compiled.hits > before
        doc["iterations"] = result.body_count
        return doc

    def _op_search(self, params: dict) -> dict:
        from repro.optimize.search import (SearchConfig, parallelism_score,
                                           search)

        nest, level = self._nest_level(params)
        deps = self.state.deps(nest, level)
        scorer = params.get("scorer", "parallelism")
        if scorer != "parallelism":
            raise ProtocolError(
                BAD_INPUT,
                f"unknown scorer {scorer!r} (the service supports "
                f"'parallelism')")
        depth = params.get("depth", 2)
        beam = params.get("beam", 8)
        if not isinstance(depth, int) or not isinstance(beam, int) \
                or depth < 0 or beam < 1:
            raise ProtocolError(
                BAD_INPUT, "params.depth must be an int >= 0 and "
                "params.beam an int >= 1")
        candidate_timeout = self._option(params, "candidate_timeout")
        prune = self._option(params, "prune")
        speculate = self._option(params, "speculate")
        model_name = self._option(params, "model")
        model = (self.state.cost_model(model_name)
                 if model_name is not None else None)
        config = SearchConfig(score=parallelism_score, depth=depth,
                              beam=beam, cache=self.state.legality_cache,
                              candidate_timeout=candidate_timeout,
                              prune=prune, speculate=speculate,
                              model=model)
        result = search(nest, deps, config=config)
        winner = result.transformation
        return {
            "winner": winner.signature() if winner else None,
            "spec": winner.to_spec() if winner is not None else None,
            "score": (result.score
                      if result.score != float("-inf") else None),
            "explored": result.explored,
            "legal": result.legal_count,
            "timeouts": result.timeouts,
            "cache_stats": result.cache_stats,
            "parallel": result.parallel,
            "pruned": result.pruned,
            "speculated": result.speculated,
            "evicted": result.evicted,
            "exact_verdicts": result.exact_verdicts,
        }

    def _op_stats(self, params: dict) -> dict:
        with self._cond:
            depth = len(self._items)
        doc = {
            "protocol": PROTOCOL_VERSION,
            "version": __version__,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "queue": {
                "depth": depth,
                "max": self.queue_max,
                "accepted": self.counters["accepted"],
                "backpressure": self.counters["backpressure"],
                "rejected_shutdown": self.counters["rejected_shutdown"],
            },
            "requests": {
                "completed": self.counters["completed"],
                "errors": self.counters["errors"],
                "timeouts": self.counters["timeouts"],
                "by_op": dict(self.counters["by_op"]),  # type: ignore
            },
            "batches": {
                "count": self.counters["batches"],
                "max_size": self.counters["max_batch"],
                "batch_max": self.batch_max,
            },
            "resilience": {
                "idem_window": len(self._idem_done),
                "idem_replays": self.counters["idem_replays"],
                "dropped_replies": self.counters["dropped_replies"],
                "chaos": _chaos.snapshot(),
                "checkpoint_path": self.checkpoint_path,
            },
            "caches": self.state.stats(),
        }
        return doc

    def _op_telemetry(self, params: dict) -> dict:
        """One process's observability snapshot: the metrics registry
        plus tracer counters.  The fleet router merges N of these into
        one fleet-wide document (see ``repro stats``)."""
        tracer = _obs.get_tracer()
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "enabled": _obs.enabled(),
            "metrics": get_metrics().snapshot(),
            "tracer": tracer.stats() if tracer is not None else None,
        }

    def _op_shutdown(self, params: dict) -> dict:
        self.request_drain("shutdown request")
        return {"stopping": True, "reason": self.drain_reason}


# -- transports -------------------------------------------------------------

def _stream_replier(stream) -> Callable[[dict], None]:
    """A thread-safe reply function writing NDJSON responses to
    *stream*; a reader that went away is ignored, so draining goes on."""
    write_lock = threading.Lock()

    def reply(obj: dict) -> None:
        with write_lock:
            try:
                stream.write(protocol.encode(obj))
                stream.flush()
            except (OSError, ValueError):
                pass

    return reply


def pump_frames(read_chunk: Callable[[], bytes],
                service: AdmissionFront,
                reply: Callable[[dict], None]) -> None:
    """Split a byte stream into newline frames and feed them to
    :meth:`AdmissionFront.ingest_bytes`.

    A frame that outgrows the size cap before its newline arrives gets
    one typed ``bad-request`` and the stream *resyncs* at the next
    newline — the connection survives an oversized (or runaway
    unterminated) frame instead of buffering it without bound.
    """
    buf = b""
    discarding = False
    while True:
        try:
            chunk = read_chunk()
        except OSError:
            break
        if not chunk:
            break
        buf += chunk
        while True:
            nl = buf.find(b"\n")
            if nl < 0:
                cap = protocol.max_frame_bytes()
                if len(buf) > cap:
                    if not discarding:
                        reply(error_response(
                            None, BAD_REQUEST,
                            f"frame exceeds the {cap}-byte limit "
                            f"(REPRO_MAX_FRAME_BYTES); discarding "
                            f"until the next newline"))
                        discarding = True
                    buf = b""
                break
            frame, buf = buf[:nl], buf[nl + 1:]
            if discarding:
                discarding = False  # tail of the oversized frame
                continue
            if frame.strip():
                service.ingest_bytes(frame, reply)
    if buf.strip() and not discarding:
        service.ingest_bytes(buf, reply)


def serve_stdio(service: AdmissionFront,
                in_stream=None, out_stream=None) -> None:
    """Serve NDJSON over stdio; returns once drained (stdin EOF, a
    signal, or a ``shutdown`` request)."""
    raw_fd = None
    if in_stream is None:
        # Real stdin is read at the fd level and pumped as bytes, so
        # frame-size and UTF-8 validation happen before JSON decoding.
        try:
            raw_fd = sys.stdin.fileno()
        except (OSError, ValueError, AttributeError):
            in_stream = sys.stdin
    reply = _stream_replier(out_stream if out_stream is not None
                            else sys.stdout)

    def reader() -> None:
        if raw_fd is not None:
            pump_frames(lambda: os.read(raw_fd, 65536), service, reply)
        else:
            for line in in_stream:
                if line.strip():
                    service.ingest(line, reply)
        service.request_drain("stdin EOF")

    threading.Thread(target=reader, name="service-stdin",
                     daemon=True).start()
    service.install_signal_handlers()
    service.run()


def serve_tcp(service: AdmissionFront, host: str = "127.0.0.1",
              port: int = 0,
              bound_callback: Optional[Callable[[str, int], None]] = None,
              ) -> None:
    """Serve NDJSON over TCP; ``port=0`` binds an ephemeral port,
    reported through *bound_callback* (and a stderr line) before
    accepting.  Returns once drained."""
    listener = socket.create_server((host, port))
    bound_host, bound_port = listener.getsockname()[:2]
    if bound_callback is not None:
        bound_callback(bound_host, bound_port)
    print(f"repro serve: listening on {bound_host}:{bound_port}",
          file=sys.stderr, flush=True)

    def handle_connection(conn: socket.socket) -> None:
        reply = _stream_replier(
            conn.makefile("w", encoding="utf-8", newline="\n"))
        try:
            # Byte-level pump: oversized / non-UTF-8 frames become
            # typed errors instead of killing the connection.
            pump_frames(lambda: conn.recv(65536), service, reply)
        except (OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def acceptor() -> None:
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed at drain
            threading.Thread(target=handle_connection, args=(conn,),
                             daemon=True).start()

    threading.Thread(target=acceptor, name="service-accept",
                     daemon=True).start()
    service.install_signal_handlers()
    try:
        service.run()
    finally:
        try:
            listener.close()
        except OSError:
            pass
