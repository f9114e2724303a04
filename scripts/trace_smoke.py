#!/usr/bin/env python
"""CI trace-continuity smoke: one request, one stitched fleet trace.

The contract under test is distributed tracing through the CLI, end to
end:

* ``repro serve --tcp --fleet 2 --trace-json ...`` turns the whole
  fleet's instrumentation on — front end and both supervised workers;
* ``repro client --trace-json ...`` roots one trace per scripted
  request, sends the context on the wire, and exports the *stitched*
  cross-process span tree shipped back on the responses;
* therefore a single ``search`` request against the fleet must yield
  **exactly one trace id** whose records span at least three
  processes (client → front end → worker service) and form a closed
  tree (every span's parent is in the export);
* ``repro stats`` against the same fleet must return the merged
  telemetry document, with the workers' summed request counters equal
  to the front end's own count and percentile estimates on the op's
  latency histogram.

Exit 0 on success.  The stitched client trace stays at
``--client-trace`` and a JSON summary (trace shape + the merged
telemetry document) lands at ``--report`` for the CI artifact upload.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.resilience.retry import RetryPolicy, RetryingClient  # noqa: E402

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""

#: Span names the stitched tree must contain, one per layer.
REQUIRED_NAMES = ("client.request", "fleet.admit", "fleet.request",
                  "service.request")


def free_port():
    import socket
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


def wait_ready(port, timeout=90.0):
    client = RetryingClient.tcp(
        "127.0.0.1", port,
        policy=RetryPolicy(attempts=10, backoff_max=2.0, budget=60.0),
        attempt_timeout=30.0)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.request("ping")
            return client
        except Exception:
            if time.monotonic() > deadline:
                raise
            client.close()
            time.sleep(0.25)


def check_trace(path):
    """Assert the stitched export is one closed cross-process tree."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    traced = [r for r in records if r.get("trace")]
    assert traced, f"{path} contains no traced spans"
    trace_ids = {r["trace"] for r in traced}
    assert len(trace_ids) == 1, (
        f"expected exactly one trace id, got {sorted(trace_ids)}")
    names = {r["name"] for r in traced}
    for required in REQUIRED_NAMES:
        assert required in names, (
            f"span {required!r} missing from the stitched trace "
            f"(have {sorted(names)})")
    procs = {r["proc"] for r in traced}
    assert len(procs) >= 3, (
        f"expected >= 3 processes in the trace, "
        f"got {len(procs)}: {sorted(procs)}")
    ids = {r["id"] for r in traced}
    roots = []
    for r in traced:
        if r.get("parent") is None:
            roots.append(r["name"])
        else:
            assert r["parent"] in ids, (
                f"span {r['id']} ({r['name']}) has dangling parent "
                f"{r['parent']}")
    assert roots == ["client.request"], (
        f"expected the client span as the single root, got {roots}")
    return {"spans": len(traced), "trace_id": trace_ids.pop(),
            "processes": len(procs), "names": sorted(names)}


def check_stats(doc):
    """Assert the merged telemetry document adds up."""
    assert doc["router"]["enabled"], "fleet telemetry reports tracing off"
    merged = doc["merged"]
    frontend = doc["router"]["metrics"]
    # Routed totals agree layer by layer (the readiness ping rides
    # along with the search, so the totals are 2)...
    assert frontend["counters"]["fleet.frontend.requests"] == \
        doc["router"]["counters"]["requests"] == \
        frontend["counters"]["fleet.requests"], (
        f"front end and router disagree on the routed total: {doc['router']}")
    # ...and the workers' summed per-op counter matches the front end's
    # per-op SLO histogram (the workers also serve direct bootstrap
    # pings the front end never sees, so the comparison is per op).
    assert merged["counters"]["service.requests.search"] == \
        frontend["histograms"]["fleet.latency_ms.search"]["count"] == 1, (
        "workers' summed search count != front-end search count: "
        f"{merged['counters']} vs {frontend['histograms']}")
    lat = merged["histograms"]["service.latency_ms.search"]
    assert lat["count"] == 1 and lat["p95"] is not None, lat
    alive = [w for w in doc["workers"] if w.get("telemetry")]
    assert len(alive) == 2, f"expected 2 reporting workers: {doc['workers']}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="trace_report.json")
    parser.add_argument("--client-trace", dest="client_trace",
                        default="client_trace.jsonl")
    parser.add_argument("--tmpdir", default=None)
    args = parser.parse_args()
    tmpdir = args.tmpdir or tempfile.mkdtemp(prefix="trace-smoke-")
    os.makedirs(tmpdir, exist_ok=True)

    script = os.path.join(tmpdir, "script.ndjson")
    with open(script, "w") as fh:
        fh.write(json.dumps({
            "id": 1, "op": "search",
            "params": {"text": STENCIL, "depth": 1, "beam": 4}}) + "\n")

    port = free_port()
    fleet_dir = os.path.join(tmpdir, "fleet")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp",
         "--host", "127.0.0.1", "--port", str(port),
         "--fleet", "2", "--fleet-dir", fleet_dir,
         "--trace-json", os.path.join(tmpdir, "frontend_trace.jsonl")],
        env=src_env())
    try:
        print("trace-smoke: waiting for the N=2 fleet front end",
              flush=True)
        probe = wait_ready(port)
        probe.close()

        print("trace-smoke: replaying 1 search request with --trace-json",
              flush=True)
        code = subprocess.call(
            [sys.executable, "-m", "repro", "client", script,
             "--connect", f"127.0.0.1:{port}", "--retries", "3",
             "--trace-json", args.client_trace],
            env=src_env(), stdout=subprocess.DEVNULL)
        assert code == 0, f"repro client exited {code}"

        print("trace-smoke: fetching merged fleet telemetry via "
              "`repro stats`", flush=True)
        stats_out = subprocess.run(
            [sys.executable, "-m", "repro", "stats",
             "--connect", f"127.0.0.1:{port}"],
            env=src_env(), capture_output=True, text=True)
        assert stats_out.returncode == 0, stats_out.stderr
        stats = json.loads(stats_out.stdout)

        shutdown = RetryingClient.tcp(
            "127.0.0.1", port,
            policy=RetryPolicy(attempts=4, backoff_max=1.0))
        shutdown.request_raw("shutdown")
        shutdown.close()
    finally:
        code = serve.wait(timeout=120)
    assert code == 0, f"fleet front end exited {code} (unclean drain)"

    shape = check_trace(args.client_trace)
    check_stats(stats)
    with open(args.report, "w") as fh:
        json.dump({"trace": shape, "stats": stats}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"trace-smoke: OK — {shape['spans']} spans, one trace id "
          f"({shape['trace_id']}) across {shape['processes']} processes; "
          f"merged telemetry adds up; report: {args.report}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
