"""Long-lived transformation service: warm caches, NDJSON.

A one-shot CLI run re-pays parsing, dependence analysis, legality
mapping and process startup on every invocation.  ``repro serve``
instead keeps a :class:`~repro.service.server.TransformationService`
alive across a *session* of requests:

* warm state (:mod:`repro.service.state`) — the bounded
  :class:`~repro.core.legality_cache.LegalityCache`, a
  :class:`~repro.runtime.compiled.CompiledNestCache`, and memoized
  parse/analysis stages shared by every request;
* in-process request processing, batched per cycle in arrival order
  (:mod:`repro.service.server`);
* a newline-delimited JSON protocol over stdio or TCP with typed
  errors, bounded-queue admission control and graceful drain
  (:mod:`repro.service.protocol`);
* a synchronous client (:mod:`repro.service.client`) used by
  ``repro client``, the lifecycle tests and the replay benchmark.
"""

from repro.service.client import ServiceClient
from repro.service.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
)
from repro.service.server import (
    TransformationService,
    serve_stdio,
    serve_tcp,
)
from repro.service.state import WarmState

__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "TransformationService",
    "WarmState",
    "serve_stdio",
    "serve_tcp",
]
