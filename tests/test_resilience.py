"""Chaos, guards, retry and supervision: the resilience layer.

The backbone is a *chaos differential*: for every injection point, an
armed fault must surface as a typed error (or a supervised restart the
client rides out) and, once the rule is exhausted, the pipeline must
produce results identical to a never-faulted run.  Faults may cost
latency; they may never change answers.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.legality_cache import LegalityCache
from repro.core.spec import parse_steps
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.parallel.worker import ScoreTimeout, call_with_timeout
from repro.resilience import chaos, guards
from repro.resilience.chaos import ChaosError, ChaosPlan, ChaosSpecError
from repro.resilience.retry import RetryPolicy, RetryingClient
from repro.resilience.supervisor import CrashLoopError, Supervisor
from repro.service import TransformationService, protocol
from repro.service.state import WarmState
from repro.util.errors import ParseError, ReproError

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


@contextmanager
def armed(spec, seed=0, state_path=None):
    chaos.arm(ChaosPlan.from_spec(spec, seed=seed, state_path=state_path))
    try:
        yield chaos.current_plan()
    finally:
        chaos.disarm()


@pytest.fixture(autouse=True)
def _clean_slate():
    chaos.disarm()
    guards.set_limits(None)
    yield
    chaos.disarm()
    guards.set_limits(None)


def drive(service, requests):
    replies = []
    for req in requests:
        service.ingest(json.dumps(req), replies.append)
    service.request_drain("test drain")
    service.run()
    return replies


# ---------------------------------------------------------------------------
# chaos spec + plan mechanics
# ---------------------------------------------------------------------------

def test_spec_grammar():
    rules = chaos.parse_spec(
        "ir.parse:error,legality:crash:3,pool.worker:hang:*:0.5,"
        "service.dispatch:drop:p0.25")
    assert [(r.point, r.kind) for r in rules] == [
        ("ir.parse", "error"), ("legality", "crash"),
        ("pool.worker", "hang"), ("service.dispatch", "drop")]
    assert rules[0].times == 1
    assert rules[1].times == 3
    assert rules[2].times is None and rules[2].arg == 0.5
    assert rules[3].probability == 0.25


@pytest.mark.parametrize("bad", [
    "nope:error", "ir.parse:explode", "ir.parse", "ir.parse:error:x",
    "ir.parse:error:1:zzz",
])
def test_spec_rejects_malformed(bad):
    with pytest.raises(ChaosSpecError):
        chaos.parse_spec(bad)


def test_count_rule_exhausts():
    with armed("ir.parse:error:2"):
        for _ in range(2):
            with pytest.raises(ChaosError):
                parse_nest(STENCIL)
        nest = parse_nest(STENCIL)  # third arrival passes through
    assert nest.depth == 2


def test_firing_counts_persist_across_restart(tmp_path):
    """A restarted (re-armed) plan resumes its counts from the state
    file — the property that keeps a supervised crash rule from being
    a crash loop."""
    state = str(tmp_path / "chaos.json")
    with armed("ir.parse:error:1", state_path=state):
        with pytest.raises(ChaosError):
            parse_nest(STENCIL)
    # Same spec re-armed (a "restarted child"): already exhausted.
    with armed("ir.parse:error:1", state_path=state):
        assert parse_nest(STENCIL).depth == 2


# ---------------------------------------------------------------------------
# the chaos differential, point by point
# ---------------------------------------------------------------------------

def _pipeline_fingerprint():
    nest = parse_nest(STENCIL)
    deps = analyze(nest, level="fm")
    T = parse_steps("interchange(1,2)", nest.depth)
    report = LegalityCache().legality(T, nest, deps)
    out = T.apply(nest, deps)
    return (nest.pretty(), sorted(str(v) for v in deps),
            report.legal, out.pretty())


POINT_TRIGGERS = {
    "ir.parse": lambda: parse_nest(STENCIL),
    "deps.analysis": lambda: analyze(parse_nest(STENCIL), level="fm"),
    "legality": lambda: LegalityCache().legality(
        parse_steps("interchange(1,2)", 2), parse_nest(STENCIL),
        analyze(parse_nest(STENCIL), level="fm")),
    "compiled.codegen": lambda: __import__(
        "repro.runtime.compiled", fromlist=["run_compiled"]).run_compiled(
        parse_nest(STENCIL), {}, symbols={"n": 6}),
}


@pytest.mark.parametrize("point", sorted(POINT_TRIGGERS))
def test_differential_error_then_identical(point):
    """Each point: one injected error raises a *typed* ChaosError; the
    next run (rule exhausted) is field-identical to a fault-free run."""
    baseline = _pipeline_fingerprint()
    with armed(f"{point}:error:1"):
        with pytest.raises(ChaosError):
            POINT_TRIGGERS[point]()
        assert _pipeline_fingerprint() == baseline
    assert _pipeline_fingerprint() == baseline


def test_chaos_error_is_typed_repro_error():
    with armed("legality:error:1"):
        with pytest.raises(ReproError):
            POINT_TRIGGERS["legality"]()


def test_service_maps_chaos_to_unavailable():
    with armed("service.dispatch:error:1"):
        service = TransformationService()
        replies = drive(service, [{"id": 1, "op": "ping"},
                                  {"id": 2, "op": "ping"}])
    by_id = {r["id"]: r for r in replies}
    assert by_id[1]["error"]["code"] == protocol.UNAVAILABLE
    assert by_id[2]["ok"]


def test_pool_worker_chaos_differential():
    """jobs=2 search with a worker crash must match jobs=1 fault-free
    (the pool requeues the dead worker's shard)."""
    from repro.optimize.search import SearchConfig, search

    nest = parse_nest(STENCIL)
    deps = analyze(nest, level="fm")
    serial = search(nest, deps,
                    config=SearchConfig(depth=1, beam=4, jobs=1))
    with armed("pool.worker:crash:1"):
        forked = search(nest, deps,
                        config=SearchConfig(depth=1, beam=4, jobs=2))
    assert forked.explored == serial.explored
    assert forked.legal_count == serial.legal_count
    assert forked.score == serial.score
    sig = lambda r: (r.transformation.signature()  # noqa: E731
                     if r.transformation else None)
    assert sig(forked) == sig(serial)


# ---------------------------------------------------------------------------
# guards: blowups become typed errors
# ---------------------------------------------------------------------------

def test_expression_depth_guard():
    guards.set_limits(guards.GuardLimits(max_expr_depth=20))
    deep = "(" * 50 + "i" + ")" * 50
    text = f"do i = 1, n\n  a(i) = {deep}\nenddo\n"
    with pytest.raises(ParseError, match="REPRO_MAX_EXPR_DEPTH"):
        parse_nest(text)


def test_nest_depth_guard():
    guards.set_limits(guards.GuardLimits(max_nest_depth=4))
    text = ""
    for k in range(6):
        text += "  " * k + f"do i{k} = 1, 4\n"
    text += "  " * 6 + "a(i0) = i1\n"
    for k in reversed(range(6)):
        text += "  " * k + "enddo\n"
    with pytest.raises(ParseError, match="REPRO_MAX_NEST_DEPTH"):
        parse_nest(text)


def test_source_size_guard():
    guards.set_limits(guards.GuardLimits(max_source_bytes=64))
    with pytest.raises(guards.ResourceLimitError,
                       match="REPRO_MAX_SOURCE_BYTES"):
        parse_nest("do i = 1, 4\n  a(i) = " + "1 + " * 40 + "1\nenddo\n")


def test_iteration_guard_is_typed():
    from repro.runtime.compiled import run_compiled

    guards.set_limits(guards.GuardLimits(max_iterations=10))
    with pytest.raises(ReproError, match="iterations"):
        run_compiled(parse_nest(STENCIL), {}, symbols={"n": 50})


def test_deep_input_never_raises_raw_recursion_error():
    """The headline guard property: absurd nesting comes back typed."""
    deep = "(" * 5000 + "i" + ")" * 5000
    text = f"do i = 1, n\n  a(i) = {deep}\nenddo\n"
    try:
        parse_nest(text)
    except ReproError:
        pass  # typed — what clients are promised
    except RecursionError:  # pragma: no cover
        pytest.fail("raw RecursionError escaped the parser guard")


# ---------------------------------------------------------------------------
# SIGALRM nesting (the satellite bugfix)
# ---------------------------------------------------------------------------

def test_nested_timeout_inner_does_not_cancel_outer():
    """Regression: an inner call_with_timeout used to setitimer(0) on
    exit, silently disarming the enclosing budget."""
    def inner_then_spin():
        value, timed_out = call_with_timeout(lambda: "fast", 5.0)
        assert value == "fast" and not timed_out
        t0 = time.monotonic()
        while time.monotonic() - t0 < 5.0:
            pass
        return "outer never fired"

    t0 = time.monotonic()
    value, timed_out = call_with_timeout(inner_then_spin, 0.4)
    assert timed_out
    assert time.monotonic() - t0 < 3.0


def test_nested_timeout_outer_shorter_than_inner():
    """When the outer budget is the binding one, the inner frame must
    not claim the timeout as its own."""
    def inner_sleeps():
        value, timed_out = call_with_timeout(lambda: time.sleep(5), 10.0)
        return ("inner-timeout" if timed_out else "inner-done")

    t0 = time.monotonic()
    _value, timed_out = call_with_timeout(inner_sleeps, 0.3)
    assert timed_out
    assert time.monotonic() - t0 < 3.0


def test_timeout_restores_previous_handler():
    sentinel = signal.getsignal(signal.SIGALRM)
    call_with_timeout(lambda: None, 1.0)
    assert signal.getsignal(signal.SIGALRM) is sentinel


def test_score_timeout_carries_token():
    assert ScoreTimeout().token is None
    tok = object()
    assert ScoreTimeout(tok).token is tok


def test_service_budget_applies_around_candidate_timeouts(monkeypatch):
    """A search with an explicit candidate_timeout runs under the
    server request budget too (nesting works); the request must come
    back typed, not hang."""
    search_mod = importlib.import_module("repro.optimize.search")

    def slow_score(transformation, nest, deps):
        time.sleep(0.2)
        return 0.0

    monkeypatch.setattr(search_mod, "parallelism_score", slow_score)
    service = TransformationService(request_timeout=0.5)
    replies = []
    service.ingest(json.dumps(
        {"id": 1, "op": "search",
         "params": {"text": STENCIL, "candidate_timeout": 1.0}}),
        replies.append)
    service.request_drain("test")
    t0 = time.monotonic()
    service.run()
    assert time.monotonic() - t0 < 3.0
    assert replies[0]["error"]["code"] == protocol.TIMEOUT


# ---------------------------------------------------------------------------
# protocol hardening: malformed frames, fuzzing
# ---------------------------------------------------------------------------

def test_invalid_utf8_frame_is_typed(make_front):
    service = make_front()
    replies = []
    service.ingest_bytes(b'\xff\xfe{"id":1}', replies.append)
    assert replies[0]["error"]["code"] == protocol.BAD_REQUEST
    # ... and the service still works afterwards.
    replies += drive(service, [{"id": 2, "op": "ping"}])
    assert replies[-1]["ok"]


def test_oversized_frame_is_typed(make_front):
    guards.set_limits(guards.GuardLimits(max_frame_bytes=128))
    service = make_front()
    replies = []
    service.ingest_bytes(b"x" * 256, replies.append)
    assert replies[0]["error"]["code"] == protocol.BAD_REQUEST
    assert "REPRO_MAX_FRAME_BYTES" in replies[0]["error"]["message"]


def test_truncated_json_is_typed(make_front):
    service = make_front()
    replies = []
    service.ingest_bytes(b'{"id": 1, "op": "pi', replies.append)
    assert replies[0]["error"]["code"] == protocol.BAD_REQUEST


def test_oversized_stream_resyncs_at_newline():
    """pump_frames discards a runaway unterminated frame and keeps the
    connection serving later requests."""
    from repro.service.server import pump_frames

    guards.set_limits(guards.GuardLimits(max_frame_bytes=1024))
    service = TransformationService()
    replies = []
    chunks = iter([b"y" * 4096, b"tail of the monster\n",
                   b'{"id": 7, "op": "ping"}\n', b""])
    pump_frames(lambda: next(chunks), service, replies.append)
    service.request_drain("test")
    service.run()
    codes = [(r["id"], r["ok"] or r["error"]["code"]) for r in replies]
    assert (None, protocol.BAD_REQUEST) in codes
    assert (7, True) in codes


def test_protocol_fuzz_random_mutations():
    """Randomly mutated request bytes must always produce a typed
    response (or silence for blank lines) and never kill the service."""
    rng = random.Random(1234)
    valid = json.dumps({"id": 1, "op": "legality", "params": {
        "text": STENCIL, "steps": "interchange(1,2)"}}).encode()
    service = TransformationService()
    replies = []
    for trial in range(200):
        frame = bytearray(valid)
        for _ in range(rng.randint(1, 8)):
            choice = rng.random()
            pos = rng.randrange(len(frame))
            if choice < 0.5:
                frame[pos] = rng.randrange(256)
            elif choice < 0.75 and len(frame) > 2:
                del frame[pos]
            else:
                frame.insert(pos, rng.randrange(256))
        service.ingest_bytes(bytes(frame.replace(b"\n", b" ")),
                             replies.append)
    service.request_drain("fuzz done")
    service.run()
    for reply in replies:
        if reply.get("ok"):
            continue
        assert reply["error"]["code"] in protocol.ERROR_CODES
    # The service survived to answer a clean request.
    out = []
    service2 = TransformationService()
    service2.ingest_bytes(valid, out.append)
    service2.request_drain("done")
    service2.run()
    assert out[0]["ok"]


# ---------------------------------------------------------------------------
# idempotency + the dedup window
# ---------------------------------------------------------------------------

def test_idem_replay_answered_from_window():
    service = TransformationService()
    req = {"id": "a", "op": "parse", "idem": "key-1",
           "params": {"text": STENCIL}}
    replies = drive(service, [req])
    service.ingest(json.dumps(dict(req, id="b")), replies.append)
    assert len(replies) == 2
    assert replies[1]["id"] == "b"  # id rewritten per retry
    assert replies[0]["result"] == replies[1]["result"]
    assert service.counters["idem_replays"] == 1


def test_idem_window_is_bounded():
    service = TransformationService()
    service.IDEM_WINDOW = 8
    reqs = [{"id": k, "op": "ping", "idem": f"k{k}"} for k in range(20)]
    drive(service, reqs)
    assert len(service._idem_done) == 8


def test_dropped_reply_recovered_by_idem_retry():
    """kind=drop: the work executes, the reply is lost, and the retry
    (same idem) is answered from the window — exactly-once execution."""
    with armed("service.dispatch:drop:1"):
        service = TransformationService()
        replies = drive(service, [{"id": 1, "op": "parse", "idem": "x",
                                   "params": {"text": STENCIL}}])
        assert replies == []  # the reply was dropped post-execution
        assert service.counters["dropped_replies"] == 1
        service.ingest(json.dumps({"id": 2, "op": "parse", "idem": "x",
                                   "params": {"text": STENCIL}}),
                       replies.append)
    assert replies[0]["id"] == 2 and replies[0]["ok"]
    assert service.counters["completed"] == 1  # executed once, not twice


def test_retryable_error_not_cached_in_idem_window():
    """kind=error: the fault surfaces once as ``unavailable``.  That
    response must NOT enter the dedup window — the work was refused,
    not done — so the retry (same idem) re-executes and succeeds
    instead of being served the stale transient error forever."""
    with armed("ir.parse:error:1"):
        service = TransformationService()
        replies = []
        answered = threading.Event()

        def reply(r):
            replies.append(r)
            answered.set()

        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        try:
            service.ingest(json.dumps(
                {"id": 1, "op": "parse", "idem": "x",
                 "params": {"text": STENCIL}}), reply)
            assert answered.wait(10)
            assert not replies[0]["ok"]
            assert replies[0]["error"]["code"] == protocol.UNAVAILABLE
            answered.clear()
            service.ingest(json.dumps(
                {"id": 2, "op": "parse", "idem": "x",
                 "params": {"text": STENCIL}}), reply)
            assert answered.wait(10)
        finally:
            service.request_drain("test done")
            thread.join(10)
    assert replies[1]["id"] == 2 and replies[1]["ok"]
    # the retry was a fresh execution, not a window replay
    assert service.counters["idem_replays"] == 0
    assert service.counters["completed"] == 1


# ---------------------------------------------------------------------------
# warm-state checkpoint / restore
# ---------------------------------------------------------------------------

def _warm_state():
    state = WarmState()
    nest = state.nest(STENCIL)
    deps = state.deps(nest)
    state.legality_cache.legality(
        parse_steps("interchange(1,2)", nest.depth), nest, deps)
    return state


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "warm.ckpt")
    state = _warm_state()
    assert state.checkpoint(path)
    fresh = WarmState()
    assert fresh.restore(path) > 0
    # The restored caches serve hits, not recomputation.
    nest = fresh.nest(STENCIL)
    assert fresh.parse_hits == 1 and fresh.parse_misses == 0
    fresh.deps(nest)
    assert fresh.analysis_hits == 1


def test_restore_corrupt_checkpoint_is_cold_start(tmp_path):
    path = str(tmp_path / "warm.ckpt")
    state = _warm_state()
    assert state.checkpoint(path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])  # torn write
    fresh = WarmState()
    assert fresh.restore(path) == 0
    assert fresh.nest(STENCIL).depth == 2  # still fully functional


def test_restore_missing_file_is_cold_start(tmp_path):
    assert WarmState().restore(str(tmp_path / "absent")) == 0


def test_restore_right_version_missing_keys_is_cold_start(tmp_path):
    """A valid-magic, valid-version payload missing a key must be a
    silent cold start, not a KeyError that kills the restarting worker
    (regression: the key reads sat outside the try block)."""
    import pickle

    from repro.service.state import _CHECKPOINT_MAGIC, CHECKPOINT_VERSION

    path = str(tmp_path / "warm.ckpt")
    for payload in (
            {"version": CHECKPOINT_VERSION},  # every key missing
            {"version": CHECKPOINT_VERSION, "parse_memo": {},
             "analysis_memo": {}},  # legality missing
            {"version": CHECKPOINT_VERSION, "parse_memo": "oops",
             "analysis_memo": {}, "legality": None},  # wrong types
    ):
        with open(path, "wb") as fh:
            fh.write(_CHECKPOINT_MAGIC)
            fh.write(pickle.dumps(payload))
        fresh = WarmState()
        assert fresh.restore(path) == 0
        assert fresh.nest(STENCIL).depth == 2  # still fully functional


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------

def _flaky_child(tmp_path, failures):
    """argv for a child that exits 1 the first *failures* runs, then 0."""
    marker = tmp_path / "attempts"
    code = (
        "import pathlib, sys\n"
        f"p = pathlib.Path({str(marker)!r})\n"
        "n = int(p.read_text()) if p.exists() else 0\n"
        "p.write_text(str(n + 1))\n"
        f"sys.exit(1 if n < {failures} else 0)\n")
    return [sys.executable, "-c", code]


def test_supervisor_restarts_until_clean_exit(tmp_path):
    report = tmp_path / "report.json"
    sup = Supervisor(_flaky_child(tmp_path, 2),
                     backoff_initial=0.05, backoff_max=0.1,
                     max_restarts=10, report_path=str(report))
    assert sup.run() == 0
    assert len(sup.restarts) == 2
    doc = json.loads(report.read_text())
    assert doc["final"] == "clean-exit" and doc["restart_count"] == 2


def test_supervisor_circuit_breaker(tmp_path):
    sup = Supervisor([sys.executable, "-c", "import sys; sys.exit(3)"],
                     backoff_initial=0.02, backoff_max=0.05,
                     max_restarts=3, restart_window=60.0,
                     report_path=str(tmp_path / "report.json"))
    with pytest.raises(CrashLoopError):
        sup.run()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["final"] == "crash-loop"


def test_supervisor_backoff_escalates(tmp_path):
    sup = Supervisor(_flaky_child(tmp_path, 3),
                     backoff_initial=0.02, backoff_factor=2.0,
                     backoff_max=1.0, max_restarts=10)
    sup.run()
    backoffs = [r["backoff_s"] for r in sup.restarts]
    assert backoffs == sorted(backoffs) and backoffs[0] < backoffs[-1]


def test_supervisor_hang_detection_survives_clock_steps(tmp_path):
    """Regression: heartbeat freshness must live in the monotonic
    domain.  A healthy child whose heartbeat *mtimes* sit hours away
    from the supervisor's wall clock (NTP step, frozen clock, museum
    filesystem) is still fresh as long as the mtime keeps *changing* —
    the old ``time.time() - mtime`` comparison killed it as hung."""
    hb = str(tmp_path / "skewed.hb")
    code = (
        "import os, time\n"
        f"hb = {hb!r}\n"
        "base = time.time()\n"
        "for k in range(16):\n"
        "    with open(hb, 'w') as f:\n"
        "        f.write(str(k))\n"
        "    skew = -7200 if k < 8 else 7200\n"
        "    os.utime(hb, (base + skew + k, base + skew + k))\n"
        "    time.sleep(0.2)\n")
    sup = Supervisor([sys.executable, "-c", code],
                     heartbeat_file=hb, hang_timeout=1.0,
                     backoff_initial=0.05, max_restarts=2,
                     report_path=str(tmp_path / "report.json"))
    assert sup.run() == 0
    assert sup.restarts == []  # never mistaken for a hang
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["final"] == "clean-exit"


def test_supervisor_stop_interrupts_restart_backoff(tmp_path):
    """Regression: ``stop()`` during the restart backoff must end
    supervision immediately.  The old ``time.sleep(backoff)`` waited
    out the full backoff and then respawned a child that the already-
    delivered SIGTERM would never reach."""
    sup = Supervisor([sys.executable, "-c", "import sys; sys.exit(1)"],
                     backoff_initial=5.0, backoff_max=5.0,
                     max_restarts=10,
                     report_path=str(tmp_path / "report.json"))
    codes = []
    thread = threading.Thread(target=lambda: codes.append(sup.run()))
    thread.start()
    deadline = time.monotonic() + 10.0
    while not sup.restarts and time.monotonic() < deadline:
        time.sleep(0.02)
    assert sup.restarts, "child never crashed into backoff"
    t0 = time.monotonic()
    sup.stop()
    thread.join(timeout=2.0)
    assert not thread.is_alive(), "stop() did not interrupt the backoff"
    assert time.monotonic() - t0 < 2.0  # not the 5s backoff
    assert codes == [1]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["final"] == "stopped"
    assert len(sup.restarts) == 1  # no respawn after stop()


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

def test_retry_policy_backoff_shape():
    policy = RetryPolicy(backoff_initial=0.1, backoff_factor=2.0,
                         backoff_max=0.5, jitter=0.0)
    rng = random.Random(0)
    assert [policy.delay(k, rng) for k in range(4)] == [
        0.1, 0.2, 0.4, 0.5]


def test_retry_backoff_max_caps_jitter_too():
    """Regression: ``backoff_max`` is a hard ceiling.  The old order
    clamped *before* adding jitter, so a saturated backoff could sleep
    up to ``backoff_max * (1 + jitter)`` — past the operator's cap."""
    policy = RetryPolicy(backoff_initial=2.0, backoff_factor=2.0,
                         backoff_max=2.0, jitter=0.5)

    class _MaxJitter:
        def random(self):
            return 1.0

    assert policy.delay(0, _MaxJitter()) == 2.0
    # un-saturated delays still jitter upward
    small = RetryPolicy(backoff_initial=0.1, backoff_factor=2.0,
                        backoff_max=10.0, jitter=0.5)
    assert small.delay(0, _MaxJitter()) == pytest.approx(0.15)


def test_retry_exhaustion_raises_unavailable():
    attempts = []

    def factory():
        attempts.append(1)
        raise OSError("connection refused")

    client = RetryingClient(
        factory, policy=RetryPolicy(attempts=3, backoff_initial=0.01,
                                    backoff_max=0.02))
    with pytest.raises(protocol.ServiceError) as info:
        client.request("ping")
    assert info.value.code == protocol.UNAVAILABLE
    assert len(attempts) == 3


def test_retry_does_not_retry_final_errors():
    """bad-input is the server's final word — no retry, no idem games."""
    calls = []

    class FakeClient:
        _pending: dict = {}

        def send(self, op, params, req_id=None, idem=None):
            calls.append(idem)
            self._sent = req_id

        def recv(self, req_id):
            return {"id": req_id, "ok": False,
                    "error": {"code": protocol.BAD_INPUT, "message": "no"}}

        def close(self, **kw):
            pass

    client = RetryingClient(FakeClient, policy=RetryPolicy(attempts=5))
    with pytest.raises(protocol.ServiceError) as info:
        client.request("parse")
    assert info.value.code == protocol.BAD_INPUT
    assert len(calls) == 1  # exactly one attempt


# ---------------------------------------------------------------------------
# the end-to-end chaos differential through a supervised server
# ---------------------------------------------------------------------------

def _request_script(n):
    """A deterministic mixed workload; every op's result is a pure
    function of its params, so fault-free and chaotic runs compare
    field-for-field."""
    ops = [
        {"op": "parse", "params": {"text": STENCIL}},
        {"op": "analyze", "params": {"text": STENCIL}},
        {"op": "legality",
         "params": {"text": STENCIL, "steps": "interchange(1,2)"}},
        {"op": "legality",
         "params": {"text": STENCIL, "steps": "reverse(1)"}},
        {"op": "apply", "params": {"text": STENCIL,
                                   "steps": "interchange(1,2)",
                                   "emit": "c"}},
    ]
    return [dict(ops[k % len(ops)], id=k) for k in range(n)]


def _supervised_replay(tmp_path, tag, n, chaos_spec=None, hang_timeout=2.0):
    import socket as socket_mod

    with socket_mod.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    argv = [sys.executable, "-m", "repro", "serve", "--tcp",
            "--port", str(port), "--supervise",
            "--hang-timeout", str(hang_timeout),
            "--checkpoint-every", "5",
            "--heartbeat-file", str(tmp_path / f"{tag}.hb"),
            "--checkpoint", str(tmp_path / f"{tag}.ckpt"),
            "--report", str(tmp_path / f"{tag}.report.json"),
            "--max-restarts", "10"]
    if chaos_spec:
        argv += ["--chaos", chaos_spec,
                 "--chaos-state", str(tmp_path / f"{tag}.chaos")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    sup = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL)
    try:
        client = RetryingClient.tcp(
            "127.0.0.1", port,
            policy=RetryPolicy(attempts=10, backoff_initial=0.2,
                               backoff_max=2.0, budget=120.0),
            attempt_timeout=2 * hang_timeout + 5.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.request("ping")
                break
            except protocol.ServiceError:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise
        responses = client.replay(_request_script(n))
        client.request_raw("shutdown")
        client.close()
        sup.wait(timeout=30)
        return responses
    finally:
        if sup.poll() is None:  # pragma: no cover
            sup.kill()
            sup.wait()


@pytest.mark.slow
def test_supervised_chaos_differential(tmp_path):
    """The acceptance criterion: a 100-request replay through a
    supervised TCP server under crash + hang + drop injection is
    field-identical to the fault-free run — zero lost, zero duplicated,
    zero changed."""
    n = 100
    baseline = _supervised_replay(tmp_path, "base", n)
    chaotic = _supervised_replay(
        tmp_path, "chaos", n,
        chaos_spec=("service.dispatch:crash:2,"
                    "service.dispatch:hang:1:60,"
                    "service.dispatch:drop:2"))
    assert len(baseline) == len(chaotic) == n
    assert [r["id"] for r in chaotic] == [r["id"] for r in baseline]
    for base, chaot in zip(baseline, chaotic):
        assert base == chaot  # every field of every response
