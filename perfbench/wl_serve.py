"""``serve``: ``repro serve --tcp --prune --speculate --model evidence``.

The server is spawned once.  Two closed-loop client connections from this
process replay a seeded mix of parse/analyze/legality/apply/run/search
requests over a Zipf-skewed pool of nests larger than the service's
256-entry memos.  One op is one request.  The service answers on a single
thread, so the two clients contend for it; this is the only workload that
reaches the service's admission, batching and warm memos, and it uses
guided search with a legality cache that stays warm across requests.
"""

from __future__ import annotations

import gc
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import gen
from common import (CHECKOUT, OUT_DIR, Outcome, child_env, proc_cpu_s,
                    proc_status_kb)
from spans import ROOT, NullRecorder
from repro.api import CompiledNest, Transformation, analyze, parse_nest
from repro.api import search
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.util.errors import ReproError

SERVE_ARGS = ("--prune", "--speculate", "--model", "evidence")
CLIENTS = 2
#: Consecutive requests that share a traced/untraced setting.
BLOCK = 100
START_TIMEOUT_S = 60.0
#: Requests replayed before the timed ones (see :meth:`Serve.warm`).
WARMUP = 1500
#: Reply codes that are failures rather than answers.
FAILURE_CODES = ("unavailable", "timeout", "backpressure", "internal",
                 "shutting-down", "bad-request")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """The spawned service and the client connections to it."""

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.port = _free_port()
        self.log_path = os.path.join(OUT_DIR, f"serve-{os.getpid()}.err")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp",
             "--host", "127.0.0.1", "--port", str(self.port), *SERVE_ARGS],
            cwd=CHECKOUT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)
        self.clients: List[ServiceClient] = []
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                client = ServiceClient.connect("127.0.0.1", self.port,
                                               timeout=2.0)
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError("server did not start; see "
                                       + self.log_path)
                time.sleep(0.02)
                continue
            self.clients.append(client)
            break
        if not client.request("ping").get("pong"):
            self.close()
            raise RuntimeError("server did not answer ping")
        while len(self.clients) < CLIENTS:
            self.clients.append(ServiceClient.connect("127.0.0.1",
                                                      self.port))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()

    def close(self) -> Optional[int]:
        """Shut the server down, wait for it and return its exit code."""
        if self.clients and self.proc.poll() is None:
            try:
                self.clients[0].request_raw("shutdown")
            except (OSError, ValueError, ServiceError):
                pass
        for client in self.clients:
            client.close(shutdown=False)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        if code == 0:
            os.unlink(self.log_path)
        return code


def params_for(op: str, case: gen.Case) -> Dict[str, object]:
    if op in ("parse", "analyze", "search"):
        return {"text": case.text}
    if op == "run":
        return {"text": case.text, "symbols": case.symbols}
    return {"text": case.text, "steps": case.steps}


class Serve:
    def __init__(self, seed: int, max_ops: int):
        self.pool = gen.serve_pool(seed)
        self.ops = gen.serve_ops(seed, WARMUP + max_ops)
        self.server = Server()
        self.cpu_s = 0.0
        self.stats: Dict[str, object] = {}
        self.peak_rss_mb = 0.0
        self._local: Dict[Tuple[str, int], object] = {}

    def warm(self) -> None:
        """Replay the first :data:`WARMUP` requests, untimed, so the timed
        requests meet the service's steady state, not its cold start."""
        client = self.server.clients[0]
        for op, index in self.ops[:WARMUP]:
            client.request_raw(op, params_for(op, self.pool[index]))

    def run(self, seconds: Optional[float], count: Optional[int],
            recorder=None) -> Tuple[List[Outcome], float]:
        """Replay until *seconds* of wall time or *count* requests over the
        two connections; returns the outcomes and the wall time."""
        self.warm()
        ops = self.ops[WARMUP:]
        if count is not None:
            ops = ops[:count]
        null = NullRecorder()
        lock = threading.Lock()
        cursor = [0]
        outcomes: List[Outcome] = []
        errors: List[BaseException] = []
        cpu0 = proc_cpu_s(self.server.proc.pid)
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None

        def client_loop(client: ServiceClient) -> None:
            mine = []
            try:
                while True:
                    with lock:
                        pos = cursor[0]
                        if pos >= len(ops) or (
                                deadline is not None
                                and time.perf_counter() >= deadline):
                            break
                        cursor[0] += 1
                    op, index = ops[pos]
                    params = params_for(op, self.pool[index])
                    traced = recorder is not None and (pos // BLOCK) % 2 == 0
                    rec = recorder if traced else null
                    t0 = time.perf_counter()
                    with rec.span(ROOT):
                        with rec.span("service." + op):
                            reply = client.request_raw(op, params)
                    done = time.perf_counter()
                    mine.append(Outcome(op, done - t0, traced, None,
                                        (pos, op, index, reply),
                                        done - start))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            with lock:
                outcomes.extend(mine)

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in self.server.clients]
        # This process only generates load; a collection pausing both
        # client threads would show up as server latency.
        gc.disable()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            gc.enable()
        wall = time.perf_counter() - start
        self.cpu_s = proc_cpu_s(self.server.proc.pid) - cpu0
        if errors:
            raise errors[0]
        outcomes.sort(key=lambda o: o.payload[0])
        return outcomes, wall

    def finish(self) -> int:
        """Read the server's stats and peak memory, then shut it down."""
        self.stats = self.server.clients[0].request("stats")
        self.peak_rss_mb = proc_status_kb(self.server.proc.pid,
                                          "VmHWM") / 1024.0
        return self.server.close()

    # -- correctness --------------------------------------------------------

    def check(self, outcomes: List[Outcome]) -> None:
        for o in outcomes:
            _pos, op, index, reply = o.payload
            try:
                o.error = self._check_reply(op, index, reply)
            except Exception as exc:  # noqa: BLE001 - a broken answer
                o.error = f"check raised {type(exc).__name__}: {exc}"

    def _check_reply(self, op: str, index: int, reply: dict) -> Optional[str]:
        want = self._answer(op, index)
        where = f"{op} on pool nest {index}"
        if not reply.get("ok"):
            code = (reply.get("error") or {}).get("code")
            if code in FAILURE_CODES:
                return f"{where}: {code} reply"
            if want == ("error", code):
                return None
            return f"{where}: reply error {code!r}, expected {want!r}"
        got = reply["result"]
        if want[0] != "ok":
            return f"{where}: reply ok, expected {want!r}"
        expected = want[1]
        if op == "search":
            score = got.get("score")
            if score != expected["score"]:
                return f"{where}: score {score} != {expected['score']}"
            if got.get("spec") and not self._legal(index, got["spec"]):
                return f"{where}: winner {got['spec']!r} is illegal"
            return None
        for key, value in expected.items():
            if got.get(key) != value:
                return f"{where}: {key} {got.get(key)!r} != {value!r}"
        return None

    def _nest(self, index: int):
        key = ("nest", index)
        if key not in self._local:
            nest = parse_nest(self.pool[index].text)
            self._local[key] = (nest, analyze(nest))
        return self._local[key]

    def _legal(self, index: int, spec: str) -> bool:
        nest, deps = self._nest(index)
        return Transformation.from_spec(spec, nest.depth).legality(
            nest, deps).legal

    def _answer(self, op: str, index: int):
        key = (op, index)
        if key not in self._local:
            try:
                self._local[key] = self._compute(op, index)
            except ReproError:
                self._local[key] = ("error", "bad-input")
        return self._local[key]

    def _compute(self, op: str, index: int) -> Tuple[str, object]:
        """("ok", expected result fields) or ("error", expected code)."""
        case = self.pool[index]
        nest, deps = self._nest(index)
        if op == "parse":
            return "ok", {"depth": nest.depth, "pretty": nest.pretty()}
        if op == "analyze":
            return "ok", {"count": len(deps), "deps": [str(v) for v in deps]}
        if op == "run":
            result = CompiledNest(nest, symbols=case.symbols).run({})
            return "ok", {"iterations": result.body_count}
        if op == "search":
            found = search(nest, deps)
            score = (found.score if found.score != float("-inf") else None)
            return "ok", {"score": score}
        transformation = Transformation.from_spec(case.steps, nest.depth)
        report = transformation.legality(nest, deps)
        if op == "legality":
            return "ok", {"legal": report.legal}
        if not report.legal:
            return "error", "illegal"
        return "ok", {"code": transformation.apply(nest, deps).pretty()}

    def repeat_share(self, outcomes: List[Outcome]) -> float:
        """Share of timed requests whose nest appeared earlier in the run,
        warm-up included."""
        seen = {index for _op, index in self.ops[:WARMUP]}
        repeats = 0
        for o in outcomes:
            index = o.payload[2]
            repeats += index in seen
            seen.add(index)
        return repeats / len(outcomes) if outcomes else 0.0
