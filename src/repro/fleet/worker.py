"""One fleet worker: a supervised ``repro serve --tcp`` child.

A :class:`WorkerHandle` composes the PR-5 parts end to end:

* the child is a real ``python -m repro serve --tcp`` process with a
  heartbeat file, periodic checkpointing and a fixed port;
* a :class:`~repro.resilience.supervisor.Supervisor` (run on a daemon
  thread — its loop is blocking) restarts the child on crash or hang
  with backoff, warm-restores it from its last checkpoint via
  ``--checkpoint``, and trips the crash-loop breaker on flapping;
* a :class:`~repro.resilience.retry.RetryingClient` is the router's
  hop to the worker: it reconnects across supervised restarts and
  carries the router's idempotency key on every resend, so a request
  that was in flight when the child died is *replayed*, never
  re-executed.

A worker whose supervisor gives up (breaker tripped) or whose client
exhausts its retry policy is *permanently* dead; the router then moves
its hash range to the survivors.  Transient deaths (the supervisor
restarts the child within the client's retry budget) keep the worker's
affinity — and its checkpoint-restored warm state.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.obs import trace as _obs
from repro.resilience.retry import RetryPolicy, RetryingClient
from repro.resilience.supervisor import CrashLoopError, Supervisor
from repro.service.child import child_env, free_port, serve_child_argv
from repro.service.protocol import ServiceError


class WorkerHandle:
    """Spawn, supervise and talk to one service worker."""

    def __init__(self, index: int, directory: str, *,
                 host: str = "127.0.0.1",
                 hang_timeout: float = 10.0,
                 max_restarts: int = 5,
                 restart_window: float = 60.0,
                 checkpoint_every: int = 25,
                 request_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 attempt_timeout: Optional[float] = 10.0,
                 extra_args: Optional[List[str]] = None):
        self.index = index
        self.host = host
        self.port = free_port(host)
        self.heartbeat = os.path.join(directory, f"w{index}.hb")
        self.checkpoint = os.path.join(directory, f"w{index}.ckpt")
        self.report = os.path.join(directory, f"w{index}.report.json")
        extra = list(extra_args or ())
        if _obs.enabled() and "--trace-json" not in extra:
            # Tracing in the parent turns the whole fleet on: each child
            # enables its own tracer (``--trace-json`` does that in
            # ``main()``), so incoming trace contexts are adopted and
            # spans ship back for stitching.  With tracing off nothing
            # is added and the children run uninstrumented.
            extra += ["--trace-json",
                      os.path.join(directory, f"w{index}.trace.jsonl")]
        if "--chaos" in extra and "--chaos-state" not in extra:
            # Firing counts are per-process state; sharing one file
            # across workers would make them steal each other's
            # budgeted faults.
            extra += ["--chaos-state",
                      os.path.join(directory, f"w{index}.chaos")]
        self.supervisor = Supervisor(
            serve_child_argv(host, self.port, self.heartbeat,
                             self.checkpoint, hang_timeout=hang_timeout,
                             checkpoint_every=checkpoint_every,
                             request_timeout=request_timeout,
                             options=extra),
            heartbeat_file=self.heartbeat,
            hang_timeout=hang_timeout,
            max_restarts=max_restarts,
            restart_window=restart_window,
            report_path=self.report,
            env=child_env())
        self.client = RetryingClient.tcp(
            host, self.port,
            policy=retry_policy or RetryPolicy(
                attempts=8, backoff_initial=0.1, backoff_max=2.0,
                budget=60.0),
            client_id=f"fleet-w{index}",
            attempt_timeout=attempt_timeout)
        #: One outstanding request per worker: the child processes
        #: serially anyway, and the RetryingClient is not re-entrant.
        self.lock = threading.Lock()
        self.alive = False
        self.exit_reason: Optional[str] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.alive = True
        self._thread = threading.Thread(
            target=self._supervise, name=f"fleet-supervisor-{self.index}",
            daemon=True)
        self._thread.start()

    def _supervise(self) -> None:
        try:
            code = self.supervisor.run()
            self.exit_reason = f"exit:{code}"
        except CrashLoopError as exc:
            self.exit_reason = f"crash-loop: {exc}"
        except Exception as exc:  # pragma: no cover — defensive
            self.exit_reason = f"{type(exc).__name__}: {exc}"
        finally:
            self.alive = False

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the child answers a ping (raises on deadline).

        A cheap accept-probe races ahead of the retrying ping so a
        slow-starting child costs polling, not retry backoff."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                socket.create_connection((self.host, self.port),
                                         timeout=0.5).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        while True:
            try:
                with self.lock:
                    self.client.request("ping")
                return
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)

    def child_pid(self) -> Optional[int]:
        """The current child's pid (for chaos drills)."""
        child = self.supervisor._child
        return child.pid if child is not None and child.poll() is None \
            else None

    def kill_child(self, signum: int = signal.SIGKILL) -> bool:
        """SIGKILL the current child (the supervisor restarts it)."""
        pid = self.child_pid()
        if pid is None:
            return False
        try:
            os.kill(pid, signum)
        except OSError:
            return False
        return True

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful teardown: stop the supervisor (interrupting any
        backoff), SIGTERM the child so it drains, close the client."""
        self.alive = False
        try:
            self.client.close(shutdown=False)
        except Exception:
            pass
        self.supervisor.stop()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "port": self.port,
            "alive": self.alive,
            "exit_reason": self.exit_reason,
            "restarts": len(self.supervisor.restarts),
            "client": dict(self.client.counters),
        }
