"""Service lifecycle: protocol goldens, admission control, drain,
warm-cache reuse and eviction.

Most tests drive a :class:`TransformationService` fully in-process —
``ingest`` admits on the caller's thread; ``request_drain`` + ``run``
processes everything deterministically with no sockets or sleeps.  The
SIGTERM test is the one real-subprocess test, because signal-driven
drain is exactly what cannot be faked in-process.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.service import (
    ServiceClient,
    TransformationService,
    protocol,
    serve_stdio,
)

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


def drive(service: TransformationService, requests):
    """Admit *requests* (dicts), then drain; returns replies in
    completion order plus any admission rejections in place."""
    replies = []
    for req in requests:
        service.ingest(json.dumps(req), replies.append)
    service.request_drain("test drain")
    service.run()
    return replies


def by_id(replies):
    return {r["id"]: r for r in replies}


# -- protocol goldens -------------------------------------------------------

def test_golden_session():
    service = TransformationService()
    replies = by_id(drive(service, [
        {"id": 1, "op": "ping"},
        {"id": 2, "op": "parse", "params": {"text": STENCIL}},
        {"id": 3, "op": "analyze", "params": {"text": STENCIL}},
        {"id": 4, "op": "legality",
         "params": {"text": STENCIL, "steps": "interchange(1,2)"}},
        {"id": 5, "op": "apply",
         "params": {"text": STENCIL, "steps": "interchange(1,2)",
                    "emit": "c"}},
        {"id": 6, "op": "run",
         "params": {"text": STENCIL, "symbols": {"n": 6}}},
        {"id": 7, "op": "stats"},
    ]))
    assert len(replies) == 7 and all(r["ok"] for r in replies.values())
    assert replies[1]["result"] == {
        "pong": True, "protocol": protocol.PROTOCOL_VERSION,
        "version": __import__("repro").__version__}
    assert replies[2]["result"]["depth"] == 2
    assert replies[2]["result"]["indices"] == ["i", "j"]
    assert replies[3]["result"]["count"] == 2
    assert sorted(replies[3]["result"]["deps"]) == ["(0, 1)", "(1, 0)"]
    assert replies[4]["result"]["legal"] is True
    assert replies[4]["result"]["spec"] == "revpermute([0,0], [2,1])"
    assert "void kernel" in replies[5]["result"]["code"]
    assert replies[6]["result"]["iterations"] == 16
    stats = replies[7]["result"]
    assert stats["queue"]["accepted"] == 7
    assert stats["requests"]["by_op"]["legality"] == 1
    assert stats["caches"]["legality"]["max_entries"] == 4096


def test_typed_errors():
    service = TransformationService()
    replies = by_id(drive(service, [
        {"id": 1, "op": "legality", "params": {"text": STENCIL}},
        {"id": 2, "op": "legality",
         "params": {"text": STENCIL, "steps": "bogus(1)"}},
        {"id": 3, "op": "apply",
         "params": {"text": STENCIL, "steps": "parallelize(2)"}},
        {"id": 4, "op": "analyze", "params": {"text": "not a nest"}},
        {"id": 5, "op": "search",
         "params": {"text": STENCIL, "scorer": "quantum"}},
    ]))
    codes = {i: replies[i]["error"]["code"] for i in replies}
    assert codes == {1: "bad-input", 2: "bad-input", 3: "illegal",
                     4: "bad-input", 5: "bad-input"}
    assert not any(r["ok"] for r in replies.values())
    assert "lexicographically negative" in replies[3]["error"]["message"]


def test_malformed_envelopes():
    service = TransformationService()
    replies = []
    service.ingest("this is not json", replies.append)
    service.ingest('{"op": "ping"}', replies.append)          # no id
    service.ingest('{"id": 1, "op": "teleport"}', replies.append)
    service.ingest('{"id": 2, "op": "ping", "params": 3}', replies.append)
    assert [r["error"]["code"] for r in replies] == \
        [protocol.BAD_REQUEST] * 4
    # The id is recovered where possible so clients can correlate.
    assert replies[2]["id"] == 1 and replies[3]["id"] == 2


def test_stdio_golden_roundtrip():
    """The stdio transport end to end: NDJSON in, NDJSON out, EOF
    drains."""
    script = (json.dumps({"id": "a", "op": "ping"}) + "\n"
              + json.dumps({"id": "b", "op": "legality",
                            "params": {"text": STENCIL,
                                       "steps": "interchange(1,2)"}})
              + "\n")
    out = io.StringIO()
    service = TransformationService()
    serve_stdio(service, in_stream=io.StringIO(script), out_stream=out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["id"] for r in lines] == ["a", "b"]
    assert all(r["ok"] for r in lines)
    assert service.drain_reason == "stdin EOF"


# -- admission control ------------------------------------------------------

def test_backpressure_is_typed_and_immediate():
    """Queue overflow answers *before* any processing happens — a full
    queue can never hang a client."""
    service = TransformationService(queue_max=3)
    replies = []
    start = time.monotonic()
    for i in range(5):
        service.ingest(json.dumps({"id": i, "op": "ping"}), replies.append)
    elapsed = time.monotonic() - start
    # Two rejections arrived synchronously, nothing else answered yet.
    assert elapsed < 1.0
    assert [r["id"] for r in replies] == [3, 4]
    assert all(r["error"]["code"] == protocol.BACKPRESSURE
               for r in replies)
    assert "retry" in replies[0]["error"]["message"]
    # The admitted three still complete on drain.
    service.request_drain("test")
    service.run()
    assert sorted(r["id"] for r in replies) == [0, 1, 2, 3, 4]
    assert sum(1 for r in replies if r["ok"]) == 3
    assert service.counters["backpressure"] == 2


def test_draining_rejects_new_requests():
    service = TransformationService()
    replies = []
    service.request_drain("test")
    service.ingest(json.dumps({"id": 9, "op": "ping"}), replies.append)
    assert replies[0]["error"]["code"] == protocol.SHUTTING_DOWN
    service.run()  # returns immediately: nothing admitted


def test_shutdown_op_drains_after_answering_admitted_work():
    service = TransformationService()
    replies = []
    # No explicit drain here: the shutdown *request* is what stops run().
    service.ingest(json.dumps({"id": 1, "op": "shutdown"}), replies.append)
    service.ingest(json.dumps({"id": 2, "op": "ping"}), replies.append)
    service.run()
    got = by_id(replies)
    assert got[1]["result"]["stopping"] is True
    assert got[2]["ok"], "work admitted before shutdown must be answered"
    assert service.drain_reason == "shutdown request"


def test_request_timeout_is_typed():
    # A 5 s hang injected into dependence analysis makes the request
    # outlast its 50 ms budget however fast the analyzer itself is.
    chaos.arm(ChaosPlan.from_spec("deps.analysis:hang:1:5"))
    try:
        service = TransformationService(request_timeout=0.05)
        replies = by_id(drive(service, [
            {"id": 1, "op": "search",
             "params": {"text": STENCIL, "depth": 3, "beam": 8}},
        ]))
    finally:
        chaos.disarm()
    assert replies[1]["error"]["code"] == protocol.TIMEOUT
    assert service.counters["timeouts"] == 1


# -- warm-cache behaviour ---------------------------------------------------

def test_second_identical_legality_request_is_a_cache_hit():
    service = TransformationService()
    replies = drive(service, [
        {"id": 1, "op": "legality",
         "params": {"text": STENCIL, "steps": "interchange(1,2)"}},
        {"id": 2, "op": "legality",
         "params": {"text": STENCIL, "steps": "interchange(1,2)"}},
        {"id": 3, "op": "stats"},
    ])
    got = by_id(replies)
    assert got[1]["result"] == got[2]["result"]
    caches = got[3]["result"]["caches"]
    assert caches["legality"]["hits"] >= 1, \
        "second identical request must hit the warm verdict cache"
    assert caches["parse"]["hits"] == 1
    assert caches["analysis"]["hits"] == 1
    assert got[3]["result"]["caches"]["reuse_ratio"] > 0


def test_compiled_nest_cache_reuse_across_run_requests():
    service = TransformationService()
    replies = by_id(drive(service, [
        {"id": 1, "op": "run",
         "params": {"text": STENCIL, "symbols": {"n": 6}}},
        {"id": 2, "op": "run",
         "params": {"text": STENCIL, "symbols": {"n": 6}}},
    ]))
    assert replies[1]["result"]["warm"] is False
    assert replies[2]["result"]["warm"] is True
    assert replies[1]["result"]["iterations"] == \
        replies[2]["result"]["iterations"]


def test_legality_cache_eviction_under_small_cap():
    """A tiny --cache-max-entries stays bounded under many distinct
    requests — and keeps answering correctly."""
    service = TransformationService(cache_max_entries=4)
    requests = [{"id": i, "op": "legality",
                 "params": {"text": STENCIL,
                            "steps": f"block(1,2,{size})"}}
                for i, size in enumerate(range(2, 22))]
    requests.append({"id": "stats", "op": "stats"})
    replies = by_id(drive(service, requests))
    assert all(replies[i]["result"]["legal"] for i in range(20))
    leg = replies["stats"]["result"]["caches"]["legality"]
    assert leg["max_entries"] == 4
    assert leg["evictions"] > 0
    assert leg["entries"] <= 3 * 4  # three bounded verdict/map/bounds tables


# -- SIGTERM drain (real process) -------------------------------------------

def test_sigterm_drains_gracefully():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=os.environ.copy())
    client = ServiceClient(proc.stdout, proc.stdin, proc=proc)
    assert client.request("ping")["pong"] is True
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=30)
    assert rc == 0, proc.stderr.read()[-2000:]
    stderr = proc.stderr.read()
    assert "drained (SIGTERM)" in stderr
    client.close(shutdown=False)
