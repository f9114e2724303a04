"""Distributed tracing & fleet telemetry (:mod:`repro.obs.distributed`).

Four tiers, cheapest first:

* thread-safety of the tracer/metrics primitives (per-thread span
  stacks, lock-guarded counters and histograms);
* the bucket/percentile/merge arithmetic behind the fleet aggregator;
* context propagation and span shipping, in process (a fake "remote"
  tracer stands in for the far side of the wire);
* real-process stitching: a fleet search request must come back as one
  span tree whose records span the front-end process, a worker service
  process, and a forked pool child.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time

import pytest

from repro import obs
from repro.deps.analysis import analyze
from repro.fleet import FleetFrontEnd, FleetRouter
from repro.fleet.worker import WorkerHandle
from repro.ir import parse_nest
from repro.obs import distributed
from repro.obs import trace
from repro.obs.metrics import (
    Histogram,
    Metrics,
    bucket_bounds,
    bucket_key,
    merge_histogram_dicts,
)
from repro.resilience.retry import RetryPolicy
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.server import TransformationService

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


@pytest.fixture
def tracer():
    t = obs.enable()
    yield t
    obs.disable()


# ---------------------------------------------------------------------------
# thread safety (tracer stacks, metric mutation)
# ---------------------------------------------------------------------------

def test_open_span_stacks_are_per_thread(tracer):
    """A span opened on one thread must parent to *that* thread's
    enclosing span, never to another thread's."""
    results = {}
    barrier = threading.Barrier(2)

    def work(name):
        with trace.span(f"outer.{name}") as outer:
            barrier.wait()  # both outers open before either inner
            with trace.span(f"inner.{name}") as inner:
                results[name] = (outer.span_id, inner.parent_id,
                                 inner.depth)
            barrier.wait()

    threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for name in "ab":
        outer_id, inner_parent, depth = results[name]
        assert inner_parent == outer_id
        assert depth == 1
    # ids are unique across threads despite concurrent allocation
    completed = tracer.spans()
    assert len({sp.span_id for sp in completed}) == len(completed) == 4


def test_metrics_concurrent_mutation_loses_nothing():
    m = Metrics()
    counter = m.counter("hammer")
    hist = m.histogram("lat")
    n, workers = 2000, 8

    def work():
        for i in range(n):
            counter.inc()
            hist.observe((i % 13) + 0.5)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n * workers
    assert hist.count == n * workers
    assert sum(hist.buckets.values()) == n * workers


def test_tracer_completed_count_survives_concurrent_closes(tracer):
    n, workers = 500, 4

    def work():
        for _ in range(n):
            with trace.span("tick"):
                pass

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert tracer.stats()["completed"] == n * workers


# ---------------------------------------------------------------------------
# buckets, percentiles, merging
# ---------------------------------------------------------------------------

def test_bucket_key_edge_cases():
    assert bucket_key(0) == "<=0"
    assert bucket_key(-3.5) == "<=0"
    assert bucket_key(0.3) == "0.5"
    assert bucket_key(0.5) == "0.5"   # exact powers own their bucket
    assert bucket_key(0.75) == "1"
    assert bucket_key(1) == "1"
    assert bucket_key(3) == "4"
    assert bucket_key(4) == "4"
    assert bucket_key(4.001) == "8"


def test_bucket_bounds_round_trip():
    for v in (0.3, 0.5, 1, 3, 4, 1000):
        lo, hi = bucket_bounds(bucket_key(v))
        assert lo < v <= hi
    assert bucket_bounds("<=0") == (None, 0.0)


def test_histogram_to_dict_reports_percentiles():
    h = Histogram("lat")
    for v in range(1, 101):
        h.observe(v)
    d = h.to_dict()
    assert d["count"] == 100
    for label in ("p50", "p95", "p99"):
        assert d[label] is not None
    # exact min/max clamp the interpolation
    assert 1 <= d["p50"] <= 64
    assert d["p95"] <= 100


def test_merged_percentiles_within_one_bucket_of_pooled_truth():
    rng = random.Random(7)
    samples_a = [rng.uniform(0.1, 50.0) for _ in range(500)]
    samples_b = [rng.uniform(5.0, 200.0) for _ in range(300)]
    ha, hb = Histogram("a"), Histogram("b")
    for v in samples_a:
        ha.observe(v)
    for v in samples_b:
        hb.observe(v)
    merged = merge_histogram_dicts([ha.to_dict(), hb.to_dict()])
    pooled = sorted(samples_a + samples_b)
    assert merged["count"] == len(pooled)
    assert merged["min"] == pooled[0] and merged["max"] == pooled[-1]
    for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
        truth = pooled[max(1, math.ceil(q * len(pooled))) - 1]
        lo, hi = bucket_bounds(bucket_key(truth))
        # within one bucket either side of the truth's bucket
        assert lo / 2.0 <= merged[label] <= hi * 2.0, (label, truth)


def test_merge_metric_snapshots_sums_tags_and_merges():
    snaps = []
    for k in (3, 4):
        m = Metrics()
        m.counter("service.requests").inc(k)
        m.gauge("queue_depth").set(k)
        m.histogram("lat").observe(float(k))
        snaps.append(m.snapshot())
    merged = distributed.merge_metric_snapshots(snaps)
    assert merged["sources"] == ["w0", "w1"]
    assert merged["counters"]["service.requests"] == 7
    assert merged["gauges"]["queue_depth"] == {"w0": 3, "w1": 4}
    lat = merged["histograms"]["lat"]
    assert lat["count"] == 2 and lat["min"] == 3.0 and lat["max"] == 4.0
    assert lat["p95"] is not None


# ---------------------------------------------------------------------------
# context propagation + shipping (in process)
# ---------------------------------------------------------------------------

def test_current_context_none_when_disabled_or_idle(tracer):
    assert distributed.current_context() is None  # no open span
    obs.disable()
    assert distributed.current_context() is None
    obs.enable()


def test_ship_reparents_and_qualifies(tracer):
    with distributed.start_trace("client.request", op="x") as root:
        ctx = distributed.current_context()
        assert ctx["id"] == root.tags["trace"]
        assert ctx["parent"] == f"{tracer.tag}-{root.span_id}"

    # the far side of the wire: its own tracer, its own ids
    remote = trace.Tracer()
    with remote.span("service.request", trace=ctx["id"]) as rsp:
        with remote.span("inner"):
            pass
    records, dropped = distributed.ship(remote, rsp, ctx)
    assert dropped == 0
    by_id = {r["id"]: r for r in records}
    root_rec = by_id[f"{remote.tag}-{rsp.span_id}"]
    assert root_rec["parent"] == ctx["parent"]
    (inner_rec,) = [r for r in records if r["name"] == "inner"]
    assert inner_rec["parent"] == root_rec["id"]
    assert all(r["trace"] == ctx["id"] for r in records)
    assert all(r["proc"] == remote.tag for r in records)

    # stitched export folds local + collected into one tree
    distributed.get_collector().add(records)
    stitched = distributed.stitched_records()
    names = {r["id"]: r for r in stitched}
    assert set(by_id) <= set(names)
    (local_root,) = [r for r in stitched if r["name"] == "client.request"]
    assert local_root["trace"] == ctx["id"]


def test_ship_truncates_oldest_first_keeping_the_root(tracer):
    ctx = {"id": "f" * 16, "parent": "peer-1"}
    with trace.span("root", trace=ctx["id"]) as root:
        for i in range(10):
            with trace.span("child", i=i):
                pass
    records, dropped = distributed.ship(tracer, root, ctx, limit=5)
    assert len(records) == 5 and dropped == 6
    assert any(r["name"] == "root" for r in records)


def test_collector_is_bounded_and_drains_by_trace():
    col = distributed.SpanCollector(limit=3)
    col.add([{"trace": "t", "id": f"p-{i}"} for i in range(5)], dropped=2)
    assert len(col) == 3
    assert col.dropped == 4  # 2 reported + 2 over the bound
    assert col.trace_ids() == ["t"]
    assert len(col.drain("t")) == 3
    assert len(col) == 0 and col.drain("t") == []


def test_event_is_a_zero_duration_child_span(tracer):
    with trace.span("outer") as outer:
        trace.event("chaos.fired", point="service.dispatch", kind="error")
    (ev,) = [sp for sp in tracer.spans() if sp.name == "chaos.fired"]
    assert ev.parent_id == outer.span_id
    assert ev.tags["point"] == "service.dispatch"
    obs.disable()
    trace.event("ignored")  # must be a silent no-op while disabled
    obs.enable()


# ---------------------------------------------------------------------------
# the wire: protocol + service adoption
# ---------------------------------------------------------------------------

def test_decode_request_accepts_and_validates_trace():
    line = json.dumps({"id": 1, "op": "ping",
                       "trace": {"id": "abc", "parent": "p-1"}})
    _, _, _, _, tr = protocol.decode_request(line)
    assert tr == {"id": "abc", "parent": "p-1"}
    _, _, _, _, none = protocol.decode_request(
        json.dumps({"id": 1, "op": "ping"}))
    assert none is None
    with pytest.raises(ProtocolError):
        protocol.decode_request(
            json.dumps({"id": 1, "op": "ping", "trace": "nope"}))
    with pytest.raises(ProtocolError):
        protocol.decode_request(
            json.dumps({"id": 1, "op": "ping", "trace": {"parent": "p"}}))


def _one_shot(service, message):
    """Ingest one request line, drain, and return the responses."""
    out = []
    service.ingest(json.dumps(message), out.append)
    service.request_drain("test")
    service.run()
    return out


def test_service_adopts_context_and_ships_spans(tracer):
    ctx = {"id": "ab" * 8, "parent": "peer-7"}
    (resp,) = _one_shot(TransformationService(),
                        {"id": 5, "op": "ping", "params": {},
                         "trace": ctx})
    assert resp["ok"]
    spans = resp.get("spans")
    assert spans
    (root,) = [r for r in spans if r["name"] == "service.request"]
    assert root["parent"] == "peer-7"
    assert all(r["trace"] == ctx["id"] for r in spans)


def test_service_without_context_ships_nothing(tracer):
    (resp,) = _one_shot(TransformationService(),
                        {"id": 5, "op": "ping", "params": {}})
    assert resp["ok"]
    assert "spans" not in resp and "spans_dropped" not in resp


def test_service_ignores_context_while_disabled():
    distributed.get_collector().clear()
    (resp,) = _one_shot(TransformationService(),
                        {"id": 5, "op": "ping", "params": {},
                         "trace": {"id": "ab" * 8, "parent": "p-1"}})
    assert resp["ok"]
    assert "spans" not in resp
    assert len(distributed.get_collector()) == 0


def test_service_telemetry_op_snapshot(tracer):
    (resp,) = _one_shot(TransformationService(),
                        {"id": 9, "op": "telemetry", "params": {}})
    assert resp["ok"]
    doc = resp["result"]
    assert doc["pid"] == os.getpid()
    assert doc["enabled"] is True
    assert doc["tracer"]["tag"] == tracer.tag
    assert "counters" in doc["metrics"]


def test_client_send_omits_trace_field_when_absent():
    from repro.service.client import ServiceClient

    class Sink:
        def __init__(self):
            self.lines = []

        def write(self, s):
            self.lines.append(s)

        def flush(self):
            pass

    sink = Sink()
    client = ServiceClient(rfile=None, wfile=sink)
    client.send("ping")
    client.send("ping", trace={"id": "t" * 16, "parent": "p-1"})
    plain, traced = (json.loads(s) for s in sink.lines)
    assert "trace" not in plain
    assert traced["trace"]["parent"] == "p-1"


def test_worker_argv_adds_trace_flag_only_when_tracing(tmp_path):
    handle = WorkerHandle(0, str(tmp_path))
    assert "--trace-json" not in handle.supervisor.child_argv
    obs.enable()
    try:
        handle = WorkerHandle(1, str(tmp_path))
        assert "--trace-json" in handle.supervisor.child_argv
    finally:
        obs.disable()


# ---------------------------------------------------------------------------
# pool children ship spans
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_pool_children_ship_candidate_spans(tracer):
    from repro.optimize.search import SearchConfig, search

    nest = parse_nest(STENCIL)
    deps = analyze(nest)
    with distributed.start_trace("client.request", op="search"):
        result = search(nest, deps,
                        config=SearchConfig(depth=1, beam=4, jobs=2))
    assert result.explored > 0
    records = distributed.get_collector().all_records()
    names = [r["name"] for r in records]
    assert "pool.worker" in names
    assert "pool.candidate" in names
    # every shipped record belongs to the trace this test rooted
    (trace_id,) = {r["trace"] for r in records}
    workers = [r for r in records if r["name"] == "pool.worker"]
    # the worker roots are re-parented under this process's shard span
    shard_ids = {f"{tracer.tag}-{sp.span_id}"
                 for sp in tracer.spans() if sp.name == "search.shard"}
    assert all(w["parent"] in shard_ids for w in workers)


def test_pool_ships_nothing_while_disabled():
    from repro.optimize.search import SearchConfig, search

    distributed.get_collector().clear()
    nest = parse_nest(STENCIL)
    deps = analyze(nest)
    search(nest, deps, config=SearchConfig(depth=1, beam=4, jobs=2))
    assert len(distributed.get_collector()) == 0


# ---------------------------------------------------------------------------
# the stitched fleet trace + merged telemetry (real processes)
# ---------------------------------------------------------------------------

def _fast_policy():
    return RetryPolicy(attempts=4, backoff_initial=0.05,
                       backoff_max=0.25, budget=10.0)


def _drive_frontend(frontend, message, timeout=120.0):
    """One request through a live front end, via a dispatcher thread."""
    replies = []
    frontend.ingest(json.dumps(message), replies.append)
    t = threading.Thread(target=frontend._dispatch_loop, daemon=True)
    t.start()
    deadline = time.monotonic() + timeout
    while not replies and time.monotonic() < deadline:
        time.sleep(0.05)
    frontend.request_drain("test")
    t.join(timeout=10.0)
    return replies


@pytest.mark.slow
def test_fleet_request_yields_one_stitched_trace(tmp_path, tracer):
    """The acceptance criterion: one search against a 2-worker fleet
    (workers with 2-process pools) produces a single trace id whose
    span tree covers front-end admission, routing, the worker service,
    and at least one forked pool child — re-parented into one tree."""
    with FleetRouter(2, directory=str(tmp_path), jobs=2,
                     retry_policy=_fast_policy()) as router:
        router.start()
        frontend = FleetFrontEnd(router, queue_max=8)
        replies = _drive_frontend(
            frontend,
            {"id": 1, "op": "search",
             "params": {"text": STENCIL, "depth": 1, "beam": 4}})
    assert replies and replies[0].get("ok"), replies

    records = [r for r in distributed.stitched_records() if r.get("trace")]
    trace_ids = {r["trace"] for r in records}
    assert len(trace_ids) == 1, trace_ids
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)
    for name in ("fleet.admit", "fleet.request", "service.request",
                 "pool.worker", "pool.candidate"):
        assert name in by_name, (name, sorted(by_name))
    # the tree crosses >= 2 process boundaries (front-end process,
    # worker service, forked pool child)
    assert len({r["proc"] for r in records}) >= 3
    # parentage: service.request hangs off this process's fleet.request,
    # pool.worker off a span of the worker service's process
    ids = {r["id"]: r for r in records}
    (svc,) = by_name["service.request"]
    assert ids[svc["parent"]]["name"] == "fleet.request"
    for worker_root in by_name["pool.worker"]:
        parent = ids[worker_root["parent"]]
        assert parent["proc"] == svc["proc"]
        assert parent["name"] == "search.shard"
    for cand in by_name["pool.candidate"]:
        assert ids[cand["parent"]]["name"] == "pool.worker"
    # SLO histogram recorded at the front end
    hist = obs.get_metrics().histogram("fleet.latency_ms.search").to_dict()
    assert hist["count"] == 1 and hist["p95"] is not None


@pytest.mark.slow
def test_fleet_telemetry_merges_worker_snapshots(tmp_path, tracer):
    """``telemetry`` against a fleet merges N worker snapshots: routed
    request counters sum to the router's total, histograms report
    percentile estimates."""
    ops = [("parse", {"text": STENCIL + f"! v{k % 5}\n"})
           for k in range(8)]
    ops += [("analyze", {"text": STENCIL + f"! v{k % 5}\n"})
            for k in range(4)]
    with FleetRouter(2, directory=str(tmp_path),
                     retry_policy=_fast_policy()) as router:
        router.start()
        for op, params in ops:
            response = router.request_raw(op, params)
            assert response.get("ok"), response
        doc = router.request("telemetry")
    assert doc["router"]["counters"]["requests"] == len(ops)
    merged = doc["merged"]
    assert len(merged["sources"]) == 2
    # bootstrap pings aside, the workers' summed request counters match
    # what the router actually routed
    routed = (merged["counters"]["service.requests"]
              - merged["counters"].get("service.requests.ping", 0))
    assert routed == len(ops)
    assert merged["counters"]["service.requests.parse"] == 8
    assert merged["counters"]["service.requests.analyze"] == 4
    lat = merged["histograms"]["service.latency_ms.parse"]
    assert lat["count"] == 8
    for label in ("p50", "p95", "p99"):
        assert lat[label] is not None
    per_worker = [w for w in doc["workers"] if "telemetry" in w]
    assert len(per_worker) == 2
    assert all(w["telemetry"]["enabled"] for w in per_worker)
