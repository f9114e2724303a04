"""A small synchronous client for the transformation service.

Two transports, one API::

    with ServiceClient.spawn() as svc:              # stdio subprocess
        report = svc.request("legality", text=SRC,
                             steps="interchange(1,2)")

    with ServiceClient.connect("127.0.0.1", 7341) as svc:   # TCP
        result = svc.request("search", text=SRC, depth=2)

:meth:`ServiceClient.request` returns the response's ``result`` object
or raises :class:`~repro.service.protocol.ServiceError` carrying the
typed error code — so backpressure is ``exc.code == "backpressure"``,
not a string match.  Responses are matched to requests by ``id``
(admission rejections arrive out of order), so the client also works
over a pipelined connection.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.service import protocol
from repro.service.protocol import ServiceError


class ServiceClient:
    """Synchronous NDJSON client over a stdio subprocess or TCP."""

    def __init__(self, rfile, wfile, proc: Optional[subprocess.Popen] = None,
                 sock: Optional[socket.socket] = None):
        self._rfile = rfile
        self._wfile = wfile
        self._proc = proc
        self._sock = sock
        self._next_id = 0
        self._pending: Dict[Any, dict] = {}
        self._closed = False

    # -- constructors ------------------------------------------------------

    @classmethod
    def spawn(cls, serve_args: Sequence[str] = (),
              python: Optional[str] = None,
              env: Optional[Dict[str, str]] = None) -> "ServiceClient":
        """Start ``python -m repro serve --stdio`` as a child process and
        attach to its pipes.  Extra ``serve_args`` (e.g. ``["--engine",
        "vectorized"]``) go through verbatim."""
        cmd = [python or sys.executable, "-m", "repro", "serve",
               "--stdio", *serve_args]
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env if env is not None else os.environ.copy())
        return cls(proc.stdout, proc.stdin, proc=proc)

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: Optional[float] = 10.0) -> "ServiceClient":
        """Connect to a ``repro serve --tcp`` server."""
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        return cls(rfile, wfile, sock=sock)

    # -- request plumbing --------------------------------------------------

    def send(self, op: str, params: Optional[Dict[str, Any]] = None,
             req_id: Optional[Any] = None,
             idem: Optional[str] = None,
             trace: Optional[Dict[str, Any]] = None) -> Any:
        """Write one request line (no wait); returns its id.  *idem* is
        an optional idempotency key (see :mod:`repro.resilience.retry`);
        the server answers a replayed key from its dedup window.
        *trace* is an optional distributed-tracing context (see
        :mod:`repro.obs.distributed`) the server will adopt."""
        if req_id is None:
            self._next_id += 1
            req_id = self._next_id
        message: Dict[str, Any] = {"id": req_id, "op": op,
                                   "params": params or {}}
        if idem is not None:
            message["idem"] = idem
        if trace is not None:
            message["trace"] = trace
        self._wfile.write(protocol.encode(message))
        self._wfile.flush()
        return req_id

    def recv(self, req_id: Any) -> dict:
        """The raw response for *req_id*, reading (and stashing) lines
        until it arrives."""
        if req_id in self._pending:
            return self._pending.pop(req_id)
        for line in self._rfile:
            if not line.strip():
                continue
            response = json.loads(line)
            if response.get("id") == req_id:
                return response
            self._pending[response.get("id")] = response
        raise ServiceError(protocol.INTERNAL,
                           f"connection closed before response {req_id!r}")

    def request_raw(self, op: str,
                    params: Optional[Dict[str, Any]] = None) -> dict:
        """One round-trip; returns the raw response object."""
        return self.recv(self.send(op, params))

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """One round-trip; returns ``result`` or raises
        :class:`ServiceError` with the response's typed code."""
        response = self.request_raw(op, params)
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise ServiceError(error.get("code", protocol.INTERNAL),
                           error.get("message", "unknown error"))

    def replay(self, requests: Iterable[dict]) -> List[dict]:
        """Send a script of ``{"op": ..., "params": {...}}`` objects
        (ids are assigned when absent) and return the raw responses in
        script order."""
        ids = [self.send(req["op"], req.get("params"), req.get("id"))
               for req in requests]
        return [self.recv(req_id) for req_id in ids]

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> Optional[dict]:
        """Ask the server to drain and stop; returns its acknowledgement
        (None if the connection is already gone)."""
        try:
            return self.request("shutdown")
        except (ServiceError, OSError, ValueError):
            return None

    def close(self, shutdown: bool = True,
              timeout: Optional[float] = 10.0) -> Optional[int]:
        """Close the transport (optionally requesting shutdown first);
        for a spawned server, waits and returns its exit code."""
        if self._closed:
            return self._proc.returncode if self._proc else None
        if shutdown:
            self.shutdown()
        self._closed = True
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        if self._proc is not None:
            try:
                return self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
                return self._proc.returncode
        return None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
