"""The fleet layer: hash-ring routing, failover, and the front-end.

Three tiers, cheapest first:

* pure unit tests for :class:`HashRing` / :func:`content_key` (no
  processes, no threads);
* router logic against *fake* workers — the failover contract (dead
  worker's in-flight request replays to a survivor under the **same**
  idempotency key) asserted without spawning anything;
* real-process differentials: a fleet replay with one worker SIGKILLed
  mid-stream must be field-identical to an unfaulted run, because
  every scripted op is a pure function of its params.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.fleet import (
    FleetError,
    FleetFrontEnd,
    FleetRouter,
    HashRing,
    content_key,
    route_key,
)
from repro.resilience.retry import RetryPolicy
from repro.service import protocol
from repro.service.protocol import ServiceError

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


def _script(n):
    """A deterministic mixed workload over several distinct nests, so
    the content hash spreads it across workers.  Every op's result is
    a pure function of its params — fleet runs of any size and fault
    history compare field-for-field."""
    ops = [
        lambda t: {"op": "parse", "params": {"text": t}},
        lambda t: {"op": "analyze", "params": {"text": t}},
        lambda t: {"op": "legality",
                   "params": {"text": t, "steps": "interchange(1,2)"}},
        lambda t: {"op": "apply",
                   "params": {"text": t, "steps": "interchange(1,2)",
                              "emit": "c"}},
    ]
    reqs = []
    for k in range(n):
        text = STENCIL + f"! variant {k % 7}\n"
        reqs.append(dict(ops[k % len(ops)](text), id=k))
    return reqs


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------

def test_content_key_is_deterministic_and_sink_sensitive():
    assert content_key(STENCIL) == content_key(STENCIL)
    assert content_key(STENCIL) != content_key(STENCIL + " ")
    assert content_key(STENCIL) != content_key(STENCIL, sink=True)


def test_route_key_extracts_text_and_sink():
    assert route_key("run", {"text": STENCIL}) == content_key(STENCIL)
    assert route_key("legality", {"text": STENCIL, "sink": True}) == \
        content_key(STENCIL, sink=True)
    # keyless / malformed params route round-robin, never crash
    assert route_key("ping", None) is None
    assert route_key("stats", {}) is None
    assert route_key("run", {"text": 42}) is None


def test_ring_is_balanced_and_stable():
    ring = HashRing(4, slots=64)
    assert sorted(ring.load().values()) == [16, 16, 16, 16]
    key = content_key(STENCIL)
    assert ring.owner(key) == ring.owner(key)
    # same shape → same assignment (routing is reproducible)
    assert ring.snapshot() == HashRing(4, slots=64).snapshot()


def test_ring_fail_moves_only_the_dead_workers_slots():
    ring = HashRing(4, slots=64)
    before = list(ring.assignment)
    moved = ring.fail(2)
    assert set(moved) == {s for s, w in enumerate(before) if w == 2}
    for slot, owner in enumerate(ring.assignment):
        if before[slot] == 2:
            assert owner != 2  # reassigned to a survivor
        else:
            assert owner == before[slot]  # untouched: minimal reshuffle
    # survivors stay balanced
    assert max(ring.load().values()) - min(ring.load().values()) <= 1


def test_ring_last_worker_death_raises():
    ring = HashRing(2, slots=8)
    ring.fail(0)
    with pytest.raises(FleetError):
        ring.fail(1)
    # failing an already-dead worker is an idempotent no-op (two
    # threads may race to report the same death)
    assert ring.fail(0) == {}


# ---------------------------------------------------------------------------
# router failover against fake workers
# ---------------------------------------------------------------------------

class _FakeClient:
    def __init__(self, worker):
        self.worker = worker

    def request_raw(self, op, params=None, req_id=None, idem=None):
        self.worker.seen.append((op, idem))
        if self.worker.dead:
            raise ServiceError(protocol.UNAVAILABLE, "retry exhausted")
        return protocol.ok_response(req_id, {"worker": self.worker.index,
                                             "op": op})

    def close(self, **kw):
        pass


class _FakeWorker:
    def __init__(self, index):
        self.index = index
        self.lock = threading.Lock()
        self.alive = True
        self.dead = False
        self.seen = []
        self.client = _FakeClient(self)

    def stop(self, timeout=None):
        self.alive = False

    def snapshot(self):
        return {"index": self.index, "alive": self.alive}


def _fake_fleet(n):
    workers = [_FakeWorker(i) for i in range(n)]
    return FleetRouter(n, workers=workers, directory=None), workers


def test_router_routes_by_content_affinity():
    router, workers = _fake_fleet(3)
    owner = router.ring.owner(content_key(STENCIL))
    for _ in range(5):
        resp = router.request_raw("analyze", {"text": STENCIL})
        assert resp["ok"] and resp["result"]["worker"] == owner
    assert len(workers[owner].seen) == 5
    assert all(not w.seen for w in workers if w.index != owner)


def test_router_failover_replays_inflight_under_same_idem():
    """The exactly-once contract: when the owning worker dies with the
    request in flight, the router reassigns its hash range and replays
    to the new owner under the *same* idempotency key."""
    router, workers = _fake_fleet(3)
    owner = router.ring.owner(content_key(STENCIL))
    workers[owner].dead = True

    resp = router.request_raw("legality", {"text": STENCIL}, req_id=7)
    assert resp["ok"] and resp["id"] == 7
    survivor = resp["result"]["worker"]
    assert survivor != owner

    # the dead worker saw the attempt; the survivor saw the replay —
    # one (op, idem) pair, two workers
    assert len(workers[owner].seen) == 1
    assert workers[owner].seen == workers[survivor].seen
    assert workers[owner].seen[0][1] is not None

    assert not router.ring.alive[owner]
    assert router.counters["failovers"] == 1
    assert router.counters["reassigned_slots"] > 0
    # subsequent requests for the same nest go straight to the survivor
    resp2 = router.request_raw("legality", {"text": STENCIL})
    assert resp2["result"]["worker"] == router.ring.owner(
        content_key(STENCIL))


def test_router_keyless_round_robin_skips_dead_workers():
    router, workers = _fake_fleet(3)
    workers[1].dead = True
    router._fail_worker(workers[1], ServiceError(
        protocol.UNAVAILABLE, "gone"))
    hit = {router.request_raw("ping")["result"]["worker"]
           for _ in range(6)}
    assert hit == {0, 2}


def test_router_last_worker_death_is_fleet_error():
    router, workers = _fake_fleet(2)
    for w in workers:
        w.dead = True
    with pytest.raises(FleetError):
        router.request_raw("analyze", {"text": STENCIL})


def test_router_replay_keeps_script_order_across_failover():
    router, workers = _fake_fleet(2)
    victim = router.ring.owner(content_key(STENCIL + "! variant 0\n"))
    workers[victim].dead = True
    reqs = _script(12)
    responses = router.replay(reqs)
    assert [r["id"] for r in responses] == list(range(12))
    assert all(r["ok"] for r in responses)
    assert router.counters["failovers"] == 1


# ---------------------------------------------------------------------------
# front-end admission (fake router)
# ---------------------------------------------------------------------------

class _FakeRouter:
    def __init__(self, n=2):
        self.workers = [_FakeWorker(i) for i in range(n)]
        self.stopped = False

    def request_raw(self, op, params=None, req_id=None, idem=None):
        return protocol.ok_response(req_id, {"op": op})

    def stop(self, timeout=None):
        self.stopped = True

    def snapshot(self):
        return {"fake": True}


def _ingest(frontend, req):
    replies = []
    frontend.ingest(json.dumps(req), replies.append)
    return replies


def test_frontend_backpressure_and_drain_rejections(make_front):
    frontend = make_front(queue_max=2)
    assert _ingest(frontend, {"id": 1, "op": "ping"}) == []  # queued
    assert _ingest(frontend, {"id": 2, "op": "ping"}) == []
    (rej,) = _ingest(frontend, {"id": 3, "op": "ping"})
    assert rej["error"]["code"] == protocol.BACKPRESSURE
    frontend.request_drain("test")
    (rej,) = _ingest(frontend, {"id": 4, "op": "ping"})
    assert rej["error"]["code"] == protocol.SHUTTING_DOWN
    assert frontend.counters["backpressure"] == 1
    assert frontend.counters["rejected_shutdown"] == 1


def test_frontend_answers_everything_admitted_then_stops_router():
    router = _FakeRouter()
    frontend = FleetFrontEnd(router, queue_max=64)
    replies = []
    for k in range(10):
        frontend.ingest(json.dumps({"id": k, "op": "ping"}),
                        replies.append)
    (ack,) = _ingest(frontend, {"id": 99, "op": "shutdown"})
    assert ack["ok"] and ack["result"]["stopping"]
    frontend.run()  # drains the queue, then stops the router
    assert len(replies) == 10 and all(r["ok"] for r in replies)
    assert frontend.counters["answered"] == 10
    assert router.stopped


# ---------------------------------------------------------------------------
# real processes: differential under a mid-stream worker kill
# ---------------------------------------------------------------------------

def _fast_policy():
    return RetryPolicy(attempts=4, backoff_initial=0.05,
                       backoff_max=0.25, budget=10.0)


@pytest.mark.slow
def test_fleet_differential_worker_killed_mid_stream(tmp_path):
    """The acceptance criterion: an N=2 replay with one worker
    SIGKILLed mid-stream (restarts disabled → permanent death →
    failover) is field-identical to an unfaulted N=1 run."""
    n = 48
    script = _script(n)

    with FleetRouter(1, directory=str(tmp_path / "base"),
                     retry_policy=_fast_policy()) as base:
        base.start()
        baseline = base.replay(script)

    faulted = FleetRouter(2, directory=str(tmp_path / "chaos"),
                          retry_policy=_fast_policy(),
                          max_restarts=0)
    faulted.start()
    try:
        killed = threading.Event()

        def chaos_kill(done_index):
            if done_index >= n // 4 and not killed.is_set():
                killed.set()
                faulted.workers[0].kill_child()

        chaotic = faulted.replay(script, progress=chaos_kill)
        stats = faulted.snapshot()
    finally:
        faulted.stop()

    assert killed.is_set()
    assert stats["counters"]["failovers"] == 1
    assert stats["alive"] == 1
    assert len(chaotic) == len(baseline) == n
    assert [r["id"] for r in chaotic] == [r["id"] for r in baseline]
    for base_resp, chaos_resp in zip(baseline, chaotic):
        assert base_resp == chaos_resp  # every field of every response


@pytest.mark.slow
def test_fleet_transient_kill_is_restarted_not_failed_over(tmp_path):
    """A SIGKILL with restarts *enabled* is the supervisor's problem:
    the child comes back, the retrying client rides it out, and the
    worker keeps its hash range (no failover)."""
    router = FleetRouter(2, directory=str(tmp_path),
                         retry_policy=RetryPolicy(
                             attempts=8, backoff_initial=0.1,
                             backoff_max=1.0, budget=30.0),
                         max_restarts=5)
    router.start()
    try:
        script = _script(24)
        killed = threading.Event()

        def chaos_kill(done_index):
            if done_index >= 6 and not killed.is_set():
                killed.set()
                router.workers[0].kill_child()

        responses = router.replay(script, progress=chaos_kill)
        assert all(r["ok"] for r in responses)
        assert router.counters["failovers"] == 0
        assert router.ring.owners() == [0, 1]
        # the kill really landed: worker 0's supervisor restarted it
        deadline = time.monotonic() + 10.0
        while (not router.workers[0].supervisor.restarts
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert len(router.workers[0].supervisor.restarts) >= 1
    finally:
        router.stop()
